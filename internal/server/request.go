package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/assay"
	"repro/internal/benchdata"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/solcache"
	"repro/internal/unit"
)

// SynthesizeRequest is the body of POST /v1/synthesize. Exactly one of
// Assay (an inline assay graph in the mfgen JSON format), Bench (a
// built-in Table I benchmark name) or Protocol (a protocol-builder spec)
// selects the bioassay.
type SynthesizeRequest struct {
	Assay    json.RawMessage `json:"assay,omitempty"`
	Bench    string          `json:"bench,omitempty"`
	Protocol *ProtocolSpec   `json:"protocol,omitempty"`
	// Alloc is a component allocation tuple such as "(3,0,0,2)". Empty
	// selects the benchmark's published allocation (for Bench) or the
	// minimal covering allocation otherwise.
	Alloc string `json:"alloc,omitempty"`
	// Baseline selects the comparison algorithm BA instead of the
	// proposed DCSA-aware flow.
	Baseline bool `json:"baseline,omitempty"`
	// Options overrides individual algorithm parameters; nil keeps the
	// paper's published defaults.
	Options *OptionsSpec `json:"options,omitempty"`
}

// ProtocolSpec describes a bioassay via the internal/protocol builders
// instead of an explicit operation list.
type ProtocolSpec struct {
	// Name of the generated assay; defaults to the protocol kind.
	Name string `json:"name,omitempty"`
	// Kind is one of "mixing_tree", "serial_dilution", "multiplex",
	// "heat_cycle".
	Kind string `json:"kind"`
	// MixingTree: power-of-two leaf count.
	Leaves int `json:"leaves,omitempty"`
	// SerialDilution: chain length; DetectEach branches a detection off
	// every stage.
	Stages     int  `json:"stages,omitempty"`
	DetectEach bool `json:"detect_each,omitempty"`
	// Multiplex: panel dimensions.
	Samples  int `json:"samples,omitempty"`
	Reagents int `json:"reagents,omitempty"`
	// HeatCycle: thermocycle count.
	Cycles int `json:"cycles,omitempty"`
	// Operation durations in seconds; unset values default to 6 s mixes,
	// 4 s heats and 5 s detections.
	MixS    float64 `json:"mix_s,omitempty"`
	HeatS   float64 `json:"heat_s,omitempty"`
	DetectS float64 `json:"detect_s,omitempty"`
}

// OptionsSpec is the subset of core.Options a client may override.
// Pointers distinguish "absent" from zero values.
type OptionsSpec struct {
	// Imax is the simulated-annealing move count per temperature step.
	Imax *int `json:"imax,omitempty"`
	// Seed drives the deterministic placement RNG.
	Seed *uint64 `json:"seed,omitempty"`
	// Portfolio anneals that many seeds concurrently and keeps the best.
	Portfolio *int `json:"portfolio,omitempty"`
	// Tempering runs parallel tempering with that many replicas instead
	// of the seed portfolio; 0/1 keep the configured default path.
	Tempering *int `json:"tempering,omitempty"`
	// RouteWorkers enables the concurrent wave router with that pool
	// size. The routed solution is byte-identical for every value — this
	// knob trades CPU for latency only.
	RouteWorkers *int `json:"route_workers,omitempty"`
	// TCSeconds is the transportation constant t_c in seconds.
	TCSeconds *float64 `json:"tc_s,omitempty"`
}

// request is a fully resolved synthesis request.
type request struct {
	graph *assay.Graph
	alloc chip.Allocation
	opts  core.Options
	// baseline mirrors SynthesizeRequest.Baseline.
	baseline bool
	// key is the content address of the solution this request determines.
	key string
}

// resolve validates the request, builds the assay graph, applies option
// overrides and computes the cache key.
func resolve(req *SynthesizeRequest) (*request, error) {
	sources := 0
	for _, have := range []bool{len(req.Assay) > 0, req.Bench != "", req.Protocol != nil} {
		if have {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("request must name exactly one of assay, bench, protocol (got %d)", sources)
	}

	var g *assay.Graph
	var assayJSON []byte // the assay's canonical encoding, the key's first part
	var alloc chip.Allocation
	var err error
	switch {
	case len(req.Assay) > 0:
		g, err = assay.Decode(bytes.NewReader(req.Assay))
		if err != nil {
			return nil, err
		}
		alloc = chip.MinimalAllocation(g)
	case req.Bench != "":
		bm, err := benchdata.ByName(req.Bench)
		if err != nil {
			return nil, err
		}
		g, alloc = bm.Graph, bm.Alloc
		assayJSON = benchAssayJSON()[bm.Name]
	default:
		g, err = buildProtocol(req.Protocol)
		if err != nil {
			return nil, err
		}
		alloc = chip.MinimalAllocation(g)
	}
	if assayJSON == nil {
		if assayJSON, err = g.MarshalJSON(); err != nil {
			return nil, err
		}
	}
	if req.Alloc != "" {
		alloc, err = chip.ParseAllocation(req.Alloc)
		if err != nil {
			return nil, err
		}
		if err := alloc.Covers(g); err != nil {
			return nil, err
		}
	}

	opts := core.DefaultOptions()
	if o := req.Options; o != nil {
		if o.Imax != nil {
			if *o.Imax < 1 || *o.Imax > 100_000 {
				return nil, fmt.Errorf("imax %d outside [1, 100000]", *o.Imax)
			}
			opts.Place.Imax = *o.Imax
		}
		if o.Seed != nil {
			opts.Place.Seed = *o.Seed
		}
		if o.Portfolio != nil {
			if *o.Portfolio < 0 || *o.Portfolio > 64 {
				return nil, fmt.Errorf("portfolio %d outside [0, 64]", *o.Portfolio)
			}
			opts.Portfolio = *o.Portfolio
		}
		if o.Tempering != nil {
			if *o.Tempering < 0 || *o.Tempering > 64 {
				return nil, fmt.Errorf("tempering %d outside [0, 64]", *o.Tempering)
			}
			opts.Tempering = *o.Tempering
		}
		if o.RouteWorkers != nil {
			if *o.RouteWorkers < 0 || *o.RouteWorkers > 256 {
				return nil, fmt.Errorf("route_workers %d outside [0, 256]", *o.RouteWorkers)
			}
			opts.Route.Workers = *o.RouteWorkers
		}
		if o.TCSeconds != nil {
			if *o.TCSeconds <= 0 || *o.TCSeconds > 3600 {
				return nil, fmt.Errorf("tc_s %g outside (0, 3600]", *o.TCSeconds)
			}
			opts.Schedule.TC = unit.Seconds(*o.TCSeconds)
		}
	}

	key, err := cacheKey(assayJSON, alloc, opts, req.Baseline)
	if err != nil {
		return nil, err
	}
	return &request{graph: g, alloc: alloc, opts: opts, baseline: req.Baseline, key: key}, nil
}

// buildProtocol constructs the assay a ProtocolSpec describes.
func buildProtocol(p *ProtocolSpec) (*assay.Graph, error) {
	name := p.Name
	if name == "" {
		name = p.Kind
	}
	secs := func(v, def float64) (unit.Time, error) {
		if v == 0 {
			v = def
		}
		if v <= 0 || v > 3600 {
			return 0, fmt.Errorf("protocol duration %gs outside (0, 3600]", v)
		}
		return unit.Seconds(v), nil
	}
	mix, err := secs(p.MixS, 6)
	if err != nil {
		return nil, err
	}
	heat, err := secs(p.HeatS, 4)
	if err != nil {
		return nil, err
	}
	det, err := secs(p.DetectS, 5)
	if err != nil {
		return nil, err
	}
	b := assay.NewBuilder(name)
	switch p.Kind {
	case "mixing_tree":
		if _, err := protocol.MixingTree(b, p.Leaves, protocol.MixSpec{Duration: mix}); err != nil {
			return nil, err
		}
	case "serial_dilution":
		if _, err := protocol.SerialDilution(b, assay.NoOp, p.Stages, protocol.MixSpec{Duration: mix}, p.DetectEach, det); err != nil {
			return nil, err
		}
	case "multiplex":
		if _, err := protocol.Multiplex(b, p.Samples, p.Reagents, mix, det); err != nil {
			return nil, err
		}
	case "heat_cycle":
		if _, err := protocol.HeatCycle(b, assay.NoOp, p.Cycles, heat, mix); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown protocol kind %q", p.Kind)
	}
	return b.Build()
}

// canonOpts is the canonical, order-stable encoding of every parameter
// that influences the synthesized solution. It deliberately covers ALL of
// core.Options — adding an option without extending this struct would
// alias distinct computations onto one cache key. The one deliberate
// omission is Route.Workers: the wave router is pinned byte-identical to
// the sequential router for every worker count (see
// TestParallelRoutingMatchesSequential), so folding it into the key
// would only split identical solutions across cache entries.
type canonOpts struct {
	TCms      int64   `json:"tc_ms"`
	FastWash  int64   `json:"fast_wash_ms"`
	SlowWash  int64   `json:"slow_wash_ms"`
	FastD     float64 `json:"fast_d"`
	SlowD     float64 `json:"slow_d"`
	T0        float64 `json:"t0"`
	Tmin      float64 `json:"tmin"`
	Alpha     float64 `json:"alpha"`
	Imax      int     `json:"imax"`
	Beta      float64 `json:"beta"`
	Gamma     float64 `json:"gamma"`
	Seed      uint64  `json:"seed"`
	PlaneW    int     `json:"plane_w"`
	PlaneH    int     `json:"plane_h"`
	Spacing   int     `json:"spacing"`
	We        float64 `json:"we"`
	PitchUm   int64   `json:"pitch_um"`
	Portfolio int     `json:"portfolio"`
	Tempering int     `json:"tempering"`
	Baseline  bool    `json:"baseline"`
}

// benchAssayJSON maps each Table I benchmark's name to its graph's
// canonical encoding, computed once: the graphs are immutable (see
// benchdata.All), so re-marshaling one per request would only repeat the
// same bytes. The map is read-only after the first call.
var benchAssayJSON = sync.OnceValue(func() map[string][]byte {
	m := make(map[string][]byte)
	for _, bm := range benchdata.All() {
		if b, err := bm.Graph.MarshalJSON(); err == nil {
			m[bm.Name] = b
		}
	}
	return m
})

// cacheKey derives the content address of the solution determined by
// (assay, allocation, options, algorithm). assayJSON is the assay
// re-encoded through its stable MarshalJSON, so client formatting
// (whitespace, field order of the original upload) cannot split
// identical requests across keys.
func cacheKey(assayJSON []byte, alloc chip.Allocation, opts core.Options, baseline bool) (string, error) {
	co := canonOpts{
		TCms:      int64(opts.Schedule.TC),
		FastWash:  int64(opts.Schedule.Wash.FastWash),
		SlowWash:  int64(opts.Schedule.Wash.SlowWash),
		FastD:     float64(opts.Schedule.Wash.FastD),
		SlowD:     float64(opts.Schedule.Wash.SlowD),
		T0:        opts.Place.T0,
		Tmin:      opts.Place.Tmin,
		Alpha:     opts.Place.Alpha,
		Imax:      opts.Place.Imax,
		Beta:      opts.Place.Beta,
		Gamma:     opts.Place.Gamma,
		Seed:      opts.Place.Seed,
		PlaneW:    opts.Place.PlaneW,
		PlaneH:    opts.Place.PlaneH,
		Spacing:   opts.Place.Spacing,
		We:        opts.Route.We,
		PitchUm:   int64(opts.Route.Pitch),
		Portfolio: opts.Portfolio,
		Tempering: opts.Tempering,
		Baseline:  baseline,
	}
	optJSON, err := json.Marshal(co)
	if err != nil {
		return "", err
	}
	return solcache.Key(assayJSON, []byte(alloc.String()), optJSON), nil
}
