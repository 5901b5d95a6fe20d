// Package solio serializes complete synthesis solutions to JSON and back.
// The format embeds the assay, the algorithm options, every scheduling
// decision, the placement and all routed paths, so a decoded solution
// passes the same validators as a freshly synthesized one and can be fed
// to the visualizers or external tooling.
package solio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/fluid"
	"repro/internal/jsonw"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/schedule"
	"repro/internal/unit"
)

// FormatVersion identifies the on-disk schema.
const FormatVersion = 1

// doc is the document as DecodeUnvalidated reads it. Append writes the
// same fields in the same order without going through these structs.
type doc struct {
	Version  int             `json:"version"`
	Baseline bool            `json:"baseline"`
	Assay    json.RawMessage `json:"assay"`
	Options  docOptions      `json:"options"`
	Comps    []docComp       `json:"components"`
	Schedule docSchedule     `json:"schedule"`
	Place    docPlacement    `json:"placement"`
	Routes   []docRoute      `json:"routes"`
	CPUMs    float64         `json:"cpu_ms"`
	// Degradations is present only for solutions that used a
	// degradation-ladder rung (internal/core); omitting it when empty
	// keeps clean-run encodings byte-identical to the historical format.
	Degradations []docDegradation `json:"degradations,omitempty"`
}

type docDegradation struct {
	Stage  string `json:"stage"`
	Event  string `json:"event"`
	Detail string `json:"detail,omitempty"`
}

type docOptions struct {
	TCms    int64   `json:"tc_ms"`
	T0      float64 `json:"t0"`
	Tmin    float64 `json:"tmin"`
	Alpha   float64 `json:"alpha"`
	Imax    int     `json:"imax"`
	Beta    float64 `json:"beta"`
	Gamma   float64 `json:"gamma"`
	Seed    uint64  `json:"seed"`
	Spacing int     `json:"spacing"`
	We      float64 `json:"we"`
	PitchUm int64   `json:"pitch_um"`
	FastDms int64   `json:"wash_fast_ms"`
	SlowDms int64   `json:"wash_slow_ms"`
	FastD   float64 `json:"wash_fast_d"`
	SlowD   float64 `json:"wash_slow_d"`
}

type docComp struct {
	Type  string `json:"type"`
	Index int    `json:"index"`
}

type docSchedule struct {
	Ops        []docOp        `json:"operations"`
	Transports []docTransport `json:"transports"`
	Caches     []docCache     `json:"caches"`
	Washes     []docWash      `json:"washes"`
	MakespanMs int64          `json:"makespan_ms"`
}

type docOp struct {
	Op            int   `json:"op"`
	Comp          int   `json:"comp"`
	StartMs       int64 `json:"start_ms"`
	EndMs         int64 `json:"end_ms"`
	InPlace       bool  `json:"in_place,omitempty"`
	InPlaceParent int   `json:"in_place_parent,omitempty"`
}

type docTransport struct {
	ID          int     `json:"id"`
	Producer    int     `json:"producer"`
	Consumer    int     `json:"consumer"`
	From        int     `json:"from"`
	To          int     `json:"to"`
	DepartMs    int64   `json:"depart_ms"`
	ArriveMs    int64   `json:"arrive_ms"`
	FromChannel bool    `json:"from_channel,omitempty"`
	CacheMs     int64   `json:"cache_start_ms,omitempty"`
	Fluid       string  `json:"fluid"`
	D           float64 `json:"diffusion"`
	WashMs      int64   `json:"wash_ms"`
}

type docCache struct {
	Producer int     `json:"producer"`
	From     int     `json:"from"`
	StartMs  int64   `json:"start_ms"`
	EndMs    int64   `json:"end_ms"`
	Fluid    string  `json:"fluid"`
	D        float64 `json:"diffusion"`
}

type docWash struct {
	Comp    int   `json:"comp"`
	Residue int   `json:"residue"`
	StartMs int64 `json:"start_ms"`
	EndMs   int64 `json:"end_ms"`
}

type docPlacement struct {
	W     int       `json:"w"`
	H     int       `json:"h"`
	Rects []docRect `json:"rects"`
}

type docRect struct {
	X int `json:"x"`
	Y int `json:"y"`
	W int `json:"w"`
	H int `json:"h"`
}

type docRoute struct {
	Task int      `json:"task"`
	Path [][2]int `json:"path"`
}

// Encode writes the solution's canonical document (see Append) in one
// Write, from a pooled buffer. On error nothing is written.
func Encode(w io.Writer, sol *core.Solution) error {
	bp := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bp)
	b, err := Append((*bp)[:0], sol)
	if err != nil {
		return err
	}
	*bp = b
	_, err = w.Write(b)
	return err
}

// encodeBufs recycles Encode's documents; a Synthetic4 document is
// ~60 KB, and growing a fresh buffer to that costs twice as much garbage.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// Append appends the solution's canonical document to dst: the doc
// structs above as encoding/json's Encoder writes them with
// SetIndent("", "  "), trailing newline included, byte for byte, but
// without reflection. Slices built by append are nil until their first
// element, so an empty section is null, and the omitempty fields are
// left out at their zero values. A NaN or infinite float is an error,
// and dst is returned unchanged.
//
// The document is written as a head (AppendHead) and a tail
// (AppendTail), so a caller that keeps a solution's schedule and
// placement, as a session's reroute does, can resume after the head
// instead of writing it again.
func Append(dst []byte, sol *core.Solution) ([]byte, error) {
	if sol == nil {
		return dst, fmt.Errorf("solio: nil solution")
	}
	b, err := AppendTail(AppendHead(dst, sol), sol)
	if err != nil {
		return dst, err
	}
	return b, nil
}

// AppendHead begins sol's document in dst with its head: the opening
// brace and every member from version through placement, which depend
// on the solution's baseline flag, assay, options, components, schedule
// and placement alone. It returns the writer after the head, which
// AppendTail finishes; a writer resumed in its state (jsonw's Resume)
// finishes the same document into another buffer. A NaN or infinite
// float is kept as the writer's Err.
func AppendHead(dst []byte, sol *core.Solution) jsonw.Writer {
	w := jsonw.NewWriter(dst)
	w.Object()
	w.Key("version")
	w.Int(FormatVersion)
	w.Key("baseline")
	w.Bool(sol.Baseline)
	w.Key("assay")
	sol.Assay.WriteJSON(&w)
	writeOptions(&w, sol.Opts)
	w.Key("components")
	if w.List(len(sol.Comps)) {
		for _, c := range sol.Comps {
			w.Object()
			w.Key("type")
			w.String(c.Kind.Type.String())
			w.Key("index")
			w.Int(int64(c.Index))
			w.EndObject()
		}
		w.EndArray()
	}
	writeSchedule(&w, sol.Schedule)
	w.Key("placement")
	w.Object()
	w.Key("w")
	w.Int(int64(sol.Placement.W))
	w.Key("h")
	w.Int(int64(sol.Placement.H))
	w.Key("rects")
	if w.List(len(sol.Placement.Rects)) {
		for _, r := range sol.Placement.Rects {
			w.Object()
			w.Key("x")
			w.Int(int64(r.X))
			w.Key("y")
			w.Int(int64(r.Y))
			w.Key("w")
			w.Int(int64(r.W))
			w.Key("h")
			w.Int(int64(r.H))
			w.EndObject()
		}
		w.EndArray()
	}
	w.EndObject()
	return w
}

// AppendTail finishes the document AppendHead began in w: the routes,
// the CPU time and the degradations, the closing brace and the trailing
// newline. It returns w's bytes with the tail appended, or the first
// unsupported value w met, in the head or the tail.
func AppendTail(w jsonw.Writer, sol *core.Solution) ([]byte, error) {
	w.Key("routes")
	if w.List(len(sol.Routing.Routes)) {
		for _, rt := range sol.Routing.Routes {
			w.Object()
			w.Key("task")
			w.Int(int64(rt.Task.ID))
			w.Key("path")
			if w.List(len(rt.Path)) {
				for _, c := range rt.Path {
					w.Array()
					w.Int(int64(c.X))
					w.Int(int64(c.Y))
					w.EndArray()
				}
				w.EndArray()
			}
			w.EndObject()
		}
		w.EndArray()
	}
	w.Key("cpu_ms")
	w.Float(float64(sol.CPU.Microseconds()) / 1000)
	if len(sol.Degradations) > 0 {
		w.Key("degradations")
		w.Array()
		for _, dg := range sol.Degradations {
			w.Object()
			w.Key("stage")
			w.String(dg.Stage)
			w.Key("event")
			w.String(dg.Event)
			if dg.Detail != "" {
				w.Key("detail")
				w.String(dg.Detail)
			}
			w.EndObject()
		}
		w.EndArray()
	}
	w.EndObject()
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("solio: %w", err)
	}
	return append(w.Bytes(), '\n'), nil
}

// writeOptions writes the options member, docOptions' fields in order.
func writeOptions(w *jsonw.Writer, o core.Options) {
	w.Key("options")
	w.Object()
	w.Key("tc_ms")
	w.Int(int64(o.Schedule.TC))
	w.Key("t0")
	w.Float(o.Place.T0)
	w.Key("tmin")
	w.Float(o.Place.Tmin)
	w.Key("alpha")
	w.Float(o.Place.Alpha)
	w.Key("imax")
	w.Int(int64(o.Place.Imax))
	w.Key("beta")
	w.Float(o.Place.Beta)
	w.Key("gamma")
	w.Float(o.Place.Gamma)
	w.Key("seed")
	w.Uint(o.Place.Seed)
	w.Key("spacing")
	w.Int(int64(o.Place.Spacing))
	w.Key("we")
	w.Float(o.Route.We)
	w.Key("pitch_um")
	w.Int(int64(o.Route.Pitch))
	w.Key("wash_fast_ms")
	w.Int(int64(o.Schedule.Wash.FastWash))
	w.Key("wash_slow_ms")
	w.Int(int64(o.Schedule.Wash.SlowWash))
	w.Key("wash_fast_d")
	w.Float(float64(o.Schedule.Wash.FastD))
	w.Key("wash_slow_d")
	w.Float(float64(o.Schedule.Wash.SlowD))
	w.EndObject()
}

// writeSchedule writes the schedule member, docSchedule's fields in order.
func writeSchedule(w *jsonw.Writer, sched *schedule.Result) {
	w.Key("schedule")
	w.Object()
	w.Key("operations")
	if w.List(len(sched.Ops)) {
		for _, bo := range sched.Ops {
			w.Object()
			w.Key("op")
			w.Int(int64(bo.Op))
			w.Key("comp")
			w.Int(int64(bo.Comp))
			w.Key("start_ms")
			w.Int(int64(bo.Start))
			w.Key("end_ms")
			w.Int(int64(bo.End))
			if bo.InPlace {
				w.Key("in_place")
				w.Bool(true)
			}
			if bo.InPlaceParent != 0 {
				w.Key("in_place_parent")
				w.Int(int64(bo.InPlaceParent))
			}
			w.EndObject()
		}
		w.EndArray()
	}
	w.Key("transports")
	if w.List(len(sched.Transports)) {
		for _, tr := range sched.Transports {
			w.Object()
			w.Key("id")
			w.Int(int64(tr.ID))
			w.Key("producer")
			w.Int(int64(tr.Producer))
			w.Key("consumer")
			w.Int(int64(tr.Consumer))
			w.Key("from")
			w.Int(int64(tr.From))
			w.Key("to")
			w.Int(int64(tr.To))
			w.Key("depart_ms")
			w.Int(int64(tr.Depart))
			w.Key("arrive_ms")
			w.Int(int64(tr.Arrive))
			if tr.FromChannel {
				w.Key("from_channel")
				w.Bool(true)
			}
			if tr.CacheStart != 0 {
				w.Key("cache_start_ms")
				w.Int(int64(tr.CacheStart))
			}
			w.Key("fluid")
			w.String(tr.Fluid.Name)
			w.Key("diffusion")
			w.Float(float64(tr.Fluid.D))
			w.Key("wash_ms")
			w.Int(int64(tr.WashTime))
			w.EndObject()
		}
		w.EndArray()
	}
	w.Key("caches")
	if w.List(len(sched.Caches)) {
		for _, ce := range sched.Caches {
			w.Object()
			w.Key("producer")
			w.Int(int64(ce.Producer))
			w.Key("from")
			w.Int(int64(ce.From))
			w.Key("start_ms")
			w.Int(int64(ce.Start))
			w.Key("end_ms")
			w.Int(int64(ce.End))
			w.Key("fluid")
			w.String(ce.Fluid.Name)
			w.Key("diffusion")
			w.Float(float64(ce.Fluid.D))
			w.EndObject()
		}
		w.EndArray()
	}
	w.Key("washes")
	if w.List(len(sched.Washes)) {
		for _, ws := range sched.Washes {
			w.Object()
			w.Key("comp")
			w.Int(int64(ws.Comp))
			w.Key("residue")
			w.Int(int64(ws.Residue))
			w.Key("start_ms")
			w.Int(int64(ws.Start))
			w.Key("end_ms")
			w.Int(int64(ws.End))
			w.EndObject()
		}
		w.EndArray()
	}
	w.Key("makespan_ms")
	w.Int(int64(sched.Makespan))
	w.EndObject()
}

// Decode reconstructs a solution from its JSON form and re-validates it.
func Decode(r io.Reader) (*core.Solution, error) {
	sol, err := DecodeUnvalidated(r)
	if err != nil {
		return nil, err
	}
	if err := sol.Validate(); err != nil {
		return nil, fmt.Errorf("solio: decoded solution invalid: %w", err)
	}
	return sol, nil
}

// DecodeUnvalidated reconstructs a solution without running the stage
// validators, so a tampered or suspect file can be handed to the
// independent auditor (core.Audit), which reports violations instead of
// refusing to decode. Only structural integrity is still enforced — the
// JSON must parse, reference a decodable assay and keep operation records
// indexable — because nothing downstream can interpret records it cannot
// even address.
func DecodeUnvalidated(r io.Reader) (*core.Solution, error) {
	var d doc
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("solio: %w", err)
	}
	if d.Version != FormatVersion {
		return nil, fmt.Errorf("solio: unsupported format version %d", d.Version)
	}
	g, err := assay.Decode(bytes.NewReader(d.Assay))
	if err != nil {
		return nil, err
	}

	opts := core.Options{
		Schedule: schedule.Options{
			TC: unit.Time(d.Options.TCms),
			Wash: fluid.WashModel{
				FastD: unit.Diffusion(d.Options.FastD), FastWash: unit.Time(d.Options.FastDms),
				SlowD: unit.Diffusion(d.Options.SlowD), SlowWash: unit.Time(d.Options.SlowDms),
			},
		},
		Place: place.Params{
			T0: d.Options.T0, Tmin: d.Options.Tmin, Alpha: d.Options.Alpha,
			Imax: d.Options.Imax, Beta: d.Options.Beta, Gamma: d.Options.Gamma,
			Seed: d.Options.Seed, Spacing: d.Options.Spacing,
		},
		Route: route.Params{We: d.Options.We, Pitch: unit.Length(d.Options.PitchUm)},
	}

	comps := make([]chip.Component, len(d.Comps))
	for i, dc := range d.Comps {
		t, err := assay.ParseOpType(dc.Type)
		if err != nil {
			return nil, fmt.Errorf("solio: component %d: %w", i, err)
		}
		comps[i] = chip.Component{ID: chip.CompID(i), Kind: chip.KindFor(t), Index: dc.Index}
	}

	sched := &schedule.Result{Assay: g, Comps: comps, Opts: opts.Schedule,
		Makespan: unit.Time(d.Schedule.MakespanMs)}
	sched.Ops = make([]schedule.BoundOp, len(d.Schedule.Ops))
	for i, o := range d.Schedule.Ops {
		if o.Op < 0 || o.Op >= g.NumOps() || o.Op != i {
			return nil, fmt.Errorf("solio: operation record %d malformed", i)
		}
		sched.Ops[i] = schedule.BoundOp{
			Op: assay.OpID(o.Op), Comp: chip.CompID(o.Comp),
			Start: unit.Time(o.StartMs), End: unit.Time(o.EndMs),
			InPlace: o.InPlace, InPlaceParent: assay.OpID(o.InPlaceParent),
		}
	}
	for _, tr := range d.Schedule.Transports {
		sched.Transports = append(sched.Transports, schedule.Transport{
			ID: tr.ID, Producer: assay.OpID(tr.Producer), Consumer: assay.OpID(tr.Consumer),
			From: chip.CompID(tr.From), To: chip.CompID(tr.To),
			Depart: unit.Time(tr.DepartMs), Arrive: unit.Time(tr.ArriveMs),
			FromChannel: tr.FromChannel, CacheStart: unit.Time(tr.CacheMs),
			Fluid:    fluid.Fluid{Name: tr.Fluid, D: unit.Diffusion(tr.D)},
			WashTime: unit.Time(tr.WashMs),
		})
	}
	for _, ce := range d.Schedule.Caches {
		sched.Caches = append(sched.Caches, schedule.ChannelCache{
			Producer: assay.OpID(ce.Producer), From: chip.CompID(ce.From),
			Start: unit.Time(ce.StartMs), End: unit.Time(ce.EndMs),
			Fluid: fluid.Fluid{Name: ce.Fluid, D: unit.Diffusion(ce.D)},
		})
	}
	for _, ws := range d.Schedule.Washes {
		sched.Washes = append(sched.Washes, schedule.ComponentWash{
			Comp: chip.CompID(ws.Comp), Residue: assay.OpID(ws.Residue),
			Start: unit.Time(ws.StartMs), End: unit.Time(ws.EndMs),
		})
	}

	pl := &place.Placement{W: d.Place.W, H: d.Place.H}
	for _, r := range d.Place.Rects {
		pl.Rects = append(pl.Rects, place.Rect{X: r.X, Y: r.Y, W: r.W, H: r.H})
	}

	// Rebuild routing tasks from the schedule so the paths can be
	// validated against exactly the same windows.
	tasks := route.TasksFrom(sched)
	byID := make(map[int]route.Task, len(tasks))
	for _, t := range tasks {
		byID[t.ID] = t
	}
	routing := &route.Result{GridW: pl.W, GridH: pl.H, Pitch: opts.Route.Pitch}
	for _, dr := range d.Routes {
		t, ok := byID[dr.Task]
		if !ok {
			return nil, fmt.Errorf("solio: route for unknown task %d", dr.Task)
		}
		rt := route.RoutedTask{Task: t}
		for _, xy := range dr.Path {
			rt.Path = append(rt.Path, route.Cell{X: xy[0], Y: xy[1]})
		}
		routing.Routes = append(routing.Routes, rt)
	}
	route.RecomputeMetrics(routing, sched, comps, pl, opts.Route)

	sol := &core.Solution{
		Assay: g, Comps: comps, Opts: opts,
		Schedule: sched, Placement: pl, Routing: routing,
		Baseline: d.Baseline,
	}
	for _, dg := range d.Degradations {
		sol.Degradations = append(sol.Degradations, core.Degradation{Stage: dg.Stage, Event: dg.Event, Detail: dg.Detail})
	}
	return sol, nil
}
