package solio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/assay"
	"repro/internal/benchdata"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/fluid"
	"repro/internal/schedule"
	"repro/internal/unit"
)

// referenceEncode is the reflection-based encoder Append replaced: the
// doc structs through encoding/json's Encoder with SetIndent("", "  ").
// It is the oracle Append's bytes are held to. The assay section comes
// from Graph.MarshalJSON, as it always did; the assay package holds that
// to its own reflection-based reference.
func referenceEncode(w io.Writer, sol *core.Solution) error {
	if sol == nil {
		return fmt.Errorf("solio: nil solution")
	}
	assayJSON, err := sol.Assay.MarshalJSON()
	if err != nil {
		return err
	}
	d := doc{
		Version:  FormatVersion,
		Baseline: sol.Baseline,
		Assay:    assayJSON,
		Options: docOptions{
			TCms:    int64(sol.Opts.Schedule.TC),
			T0:      sol.Opts.Place.T0,
			Tmin:    sol.Opts.Place.Tmin,
			Alpha:   sol.Opts.Place.Alpha,
			Imax:    sol.Opts.Place.Imax,
			Beta:    sol.Opts.Place.Beta,
			Gamma:   sol.Opts.Place.Gamma,
			Seed:    sol.Opts.Place.Seed,
			Spacing: sol.Opts.Place.Spacing,
			We:      sol.Opts.Route.We,
			PitchUm: int64(sol.Opts.Route.Pitch),
			FastDms: int64(sol.Opts.Schedule.Wash.FastWash),
			SlowDms: int64(sol.Opts.Schedule.Wash.SlowWash),
			FastD:   float64(sol.Opts.Schedule.Wash.FastD),
			SlowD:   float64(sol.Opts.Schedule.Wash.SlowD),
		},
		CPUMs: float64(sol.CPU.Microseconds()) / 1000,
	}
	for _, c := range sol.Comps {
		d.Comps = append(d.Comps, docComp{Type: c.Kind.Type.String(), Index: c.Index})
	}
	for _, bo := range sol.Schedule.Ops {
		d.Schedule.Ops = append(d.Schedule.Ops, docOp{
			Op: int(bo.Op), Comp: int(bo.Comp),
			StartMs: int64(bo.Start), EndMs: int64(bo.End),
			InPlace: bo.InPlace, InPlaceParent: int(bo.InPlaceParent),
		})
	}
	for _, tr := range sol.Schedule.Transports {
		d.Schedule.Transports = append(d.Schedule.Transports, docTransport{
			ID: tr.ID, Producer: int(tr.Producer), Consumer: int(tr.Consumer),
			From: int(tr.From), To: int(tr.To),
			DepartMs: int64(tr.Depart), ArriveMs: int64(tr.Arrive),
			FromChannel: tr.FromChannel, CacheMs: int64(tr.CacheStart),
			Fluid: tr.Fluid.Name, D: float64(tr.Fluid.D), WashMs: int64(tr.WashTime),
		})
	}
	for _, ce := range sol.Schedule.Caches {
		d.Schedule.Caches = append(d.Schedule.Caches, docCache{
			Producer: int(ce.Producer), From: int(ce.From),
			StartMs: int64(ce.Start), EndMs: int64(ce.End),
			Fluid: ce.Fluid.Name, D: float64(ce.Fluid.D),
		})
	}
	for _, ws := range sol.Schedule.Washes {
		d.Schedule.Washes = append(d.Schedule.Washes, docWash{
			Comp: int(ws.Comp), Residue: int(ws.Residue),
			StartMs: int64(ws.Start), EndMs: int64(ws.End),
		})
	}
	d.Schedule.MakespanMs = int64(sol.Schedule.Makespan)
	d.Place = docPlacement{W: sol.Placement.W, H: sol.Placement.H}
	for _, r := range sol.Placement.Rects {
		d.Place.Rects = append(d.Place.Rects, docRect{X: r.X, Y: r.Y, W: r.W, H: r.H})
	}
	for _, rt := range sol.Routing.Routes {
		dr := docRoute{Task: rt.Task.ID}
		for _, c := range rt.Path {
			dr.Path = append(dr.Path, [2]int{c.X, c.Y})
		}
		d.Routes = append(d.Routes, dr)
	}
	for _, dg := range sol.Degradations {
		d.Degradations = append(d.Degradations, docDegradation{Stage: dg.Stage, Event: dg.Event, Detail: dg.Detail})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// matchReference encodes sol through Encode, Append (onto a non-empty
// dst) and referenceEncode. Either all three succeed with the same
// bytes, or all three fail and neither new path writes anything.
func matchReference(t *testing.T, name string, sol *core.Solution) {
	t.Helper()
	var want bytes.Buffer
	refErr := referenceEncode(&want, sol)
	var got bytes.Buffer
	encErr := Encode(&got, sol)
	prefix := []byte("prefix")
	app, appErr := Append(prefix, sol)
	if refErr != nil {
		if encErr == nil || appErr == nil {
			t.Fatalf("%s: reference failed (%v) but Encode (%v) or Append (%v) did not", name, refErr, encErr, appErr)
		}
		if got.Len() != 0 || string(app) != "prefix" {
			t.Fatalf("%s: a failed encode wrote %q, appended %q", name, got.Bytes(), app[len(prefix):])
		}
		return
	}
	if encErr != nil || appErr != nil {
		t.Fatalf("%s: reference encoded but Encode: %v, Append: %v", name, encErr, appErr)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: Encode differs from the reference at byte %d:\n%s", name,
			firstDiff(got.Bytes(), want.Bytes()), excerpt(got.Bytes(), want.Bytes()))
	}
	if !bytes.Equal(app[len(prefix):], want.Bytes()) || string(app[:len(prefix)]) != "prefix" {
		t.Fatalf("%s: Append differs from the reference", name)
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// excerpt shows both documents around their first difference.
func excerpt(got, want []byte) string {
	i := firstDiff(got, want)
	lo := max(0, i-80)
	return fmt.Sprintf("got:  %q\nwant: %q", got[lo:min(len(got), i+80)], want[lo:min(len(want), i+80)])
}

// TestEncodeMatchesReference holds Append to the reflection-based
// encoder over every Table I benchmark under both algorithms and three
// seeds, with and without CPU time and an exotic degradation, and over
// generated assays of 4 to 12 operations.
func TestEncodeMatchesReference(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Place.Imax = 30
	variants := func(name string, sol *core.Solution) {
		for _, cpu := range []time.Duration{0, 1234567891} {
			for _, degs := range [][]core.Degradation{nil, {
				{Stage: "route", Event: "ripup"},
				{Stage: "session", Event: "reschedule", Detail: exoticDetail},
				{Stage: "place", Event: "seed-retry", Detail: "R&D"},
			}} {
				c := *sol
				c.CPU = cpu
				c.Degradations = degs
				matchReference(t, fmt.Sprintf("%s cpu=%v degradations=%d", name, cpu, len(degs)), &c)
			}
		}
	}
	for _, bm := range benchdata.All() {
		for _, baseline := range []bool{false, true} {
			synth := core.Synthesize
			if baseline {
				synth = core.SynthesizeBaseline
			}
			for seed := uint64(1); seed <= 3; seed++ {
				o := opts
				o.Place.Seed = seed
				sol, err := synth(bm.Graph, bm.Alloc, o)
				if err != nil {
					t.Fatalf("%s baseline=%v seed %d: %v", bm.Name, baseline, seed, err)
				}
				variants(fmt.Sprintf("%s baseline=%v seed %d", bm.Name, baseline, seed), sol)
			}
		}
	}
	for ops := 4; ops <= 12; ops++ {
		g := benchdata.GenerateSynthetic(fmt.Sprintf("gen%d", ops), ops, chip.Allocation{2, 1, 1, 1}, uint64(ops))
		sol, err := core.Synthesize(g, chip.MinimalAllocation(g), opts)
		if err != nil {
			t.Fatalf("generated %d ops: %v", ops, err)
		}
		variants(fmt.Sprintf("generated %d ops", ops), sol)
	}
}

// fuzzBase is the solution FuzzEncodeMatchesReference mutates: IVD, whose
// schedule has transports, channel caches and washes.
var fuzzBase = sync.OnceValues(func() (*core.Solution, error) {
	bm, err := benchdata.ByName("IVD")
	if err != nil {
		return nil, err
	}
	o := core.DefaultOptions()
	o.Place.Imax = 20
	return core.Synthesize(bm.Graph, bm.Alloc, o)
})

// FuzzEncodeMatchesReference mutates the strings and floats of a
// solution — op, fluid and degradation names, diffusion, T0, Alpha, We
// and CPU time — and requires Append's bytes to equal the reference's.
// A NaN or infinite float must fail both, and the new encoder must then
// write nothing.
func FuzzEncodeMatchesReference(f *testing.F) {
	f.Add("mix", "buffer", "route", "ripup", "", 1e-6, 10000.0, 0.95, 1.0, int64(0))
	f.Add("<op>", "a&b", "session", "reschedule", exoticDetail, 5e-8, 1e-7, 1e21, 0.5, int64(1234567891))
	f.Add("\x00", "\u2028", "\xff", "e\"", "\\", 1.5e-9, -0.0, 1e-6, 2.5e20, int64(-1))
	f.Add("nan", "inf", "s", "e", "d", math.NaN(), math.Inf(1), math.Inf(-1), 0.0, int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, opName, fluidName, stage, event, detail string, d, t0, alpha, we float64, cpu int64) {
		base, err := fuzzBase()
		if err != nil {
			t.Fatal(err)
		}
		sol := *base
		sol.Opts.Place.T0 = t0
		sol.Opts.Place.Alpha = alpha
		sol.Opts.Route.We = we
		sol.CPU = time.Duration(cpu)
		sol.Degradations = []core.Degradation{{Stage: stage, Event: event, Detail: detail}}

		// The assay must stay buildable, so a diffusion it would reject
		// only reaches the schedule's transports and caches.
		b := assay.NewBuilder(base.Assay.Name() + opName)
		for _, op := range base.Assay.Operations() {
			out := fluid.Fluid{Name: fluidName, D: op.Output.D}
			if unit.Diffusion(d).Valid() {
				out.D = unit.Diffusion(d)
			}
			b.AddOp(opName+op.Name, op.Type, op.Duration, out)
		}
		for _, e := range base.Assay.Edges() {
			b.AddDep(e.From, e.To)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		sol.Assay = g

		sched := *base.Schedule
		sched.Transports = append([]schedule.Transport(nil), base.Schedule.Transports...)
		for i := range sched.Transports {
			sched.Transports[i].Fluid = fluid.Fluid{Name: fluidName, D: unit.Diffusion(d)}
		}
		sched.Caches = append([]schedule.ChannelCache(nil), base.Schedule.Caches...)
		for i := range sched.Caches {
			sched.Caches[i].Fluid = fluid.Fluid{Name: fluidName, D: unit.Diffusion(d)}
		}
		sol.Schedule = &sched

		matchReference(t, "fuzz", &sol)
	})
}
