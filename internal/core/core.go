// Package core implements the paper's primary contribution end to end:
// the top-down flow-layer physical synthesis of DCSA-based biochips.
//
// Given a bioassay (sequencing graph), a component allocation and the
// algorithm parameters, Synthesize runs the three stages of Section IV —
// DCSA-aware resource binding and scheduling (Algorithm 1), simulated-
// annealing placement driven by connection priorities (Algorithm 2,
// lines 1-8) and transportation-conflict-aware weighted A* routing
// (Algorithm 2, lines 9-18) — and returns a complete Solution carrying
// the metrics reported in Table I and Figs. 8-9. SynthesizeBaseline runs
// the comparison algorithm BA of Section V on the same inputs.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"time"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/schedule"
	"repro/internal/unit"
	"repro/internal/verify"
)

// Options bundles the parameters of every stage. The zero value is not
// usable; start from DefaultOptions (the paper's published settings).
type Options struct {
	Schedule schedule.Options
	Place    place.Params
	Route    route.Params
	// Portfolio, when >= 2, anneals that many placements concurrently
	// (seeds Place.Seed … Place.Seed+Portfolio-1) and keeps the one with
	// the lowest Eq. 3 energy, ties broken by the smallest seed. 0 or 1
	// runs the single-seed anneal and reproduces its output exactly. Only
	// the proposed flow uses it; the baseline placer is deterministic in
	// the seed and gains nothing from restarts.
	Portfolio int
	// Tempering, when >= 2, replaces the independent-seed portfolio with
	// parallel tempering: that many replicas anneal concurrently at a
	// geometric temperature ladder spanning [Tmin, T0] (seeds Place.Seed …
	// Place.Seed+Tempering-1) and exchange configurations at deterministic
	// round boundaries (see place.AnnealTempered). 0 or 1 keeps the
	// historical portfolio/single-seed path bit for bit — the pinned
	// fingerprints cover that default. When both Tempering and Portfolio
	// are set, Tempering wins; the baseline flow ignores both.
	Tempering int
	// Verify, when set, runs the independent constraint auditor
	// (internal/verify) on every synthesized solution before returning it
	// and fails the synthesis if the audit reports any violation. The
	// audit reads the finished solution only — it consumes no randomness
	// and cannot change the result, so enabling it preserves the pinned
	// fingerprints at the cost of one extra pass over the solution.
	Verify bool
	// Degrade configures the degradation ladder. The zero value disables
	// every rung and reproduces the historical flow bit for bit.
	Degrade Degrade
}

// Degrade configures the degradation ladder: how much extra ground the
// flow may give before failing a synthesis outright. Every rung trades
// solution quality for completion, never correctness — any solution that
// used a rung carries the fact in Solution.Degradations and is re-audited
// by internal/verify before it is returned. The zero value disables the
// whole ladder.
type Degrade struct {
	// ScheduleDeadline, PlaceDeadline and RouteDeadline are per-stage
	// soft deadlines. A stage that overruns its deadline is not a
	// synthesis failure: scheduling falls back to the baseline
	// list-scheduler (proposed flow only — the baseline scheduler has no
	// cheaper fallback), placement retries at reduced annealing effort,
	// and routing treats the overrun as one failed congestion-recovery
	// attempt. Zero means no deadline.
	ScheduleDeadline time.Duration
	PlaceDeadline    time.Duration
	RouteDeadline    time.Duration
	// RipUpRounds arms the router's bounded rip-up-and-reroute recovery
	// (route.Params.RipUpRounds): when a task finds no conflict-free
	// path, up to this many rounds of evicting and rerouting neighbouring
	// tasks are tried before the usual dilation ladder takes over.
	RipUpRounds int
	// ReducedEffort extends the seed-retry loop past its usual 4
	// attempts with up to 4 further attempts at quartered annealing
	// effort (Imax/4, no portfolio) — a last-resort restart that prefers
	// a degraded placement over no solution.
	ReducedEffort bool
}

// Enabled reports whether any rung of the ladder is armed.
func (d Degrade) Enabled() bool {
	return d != Degrade{}
}

// Degradation records one use of a degradation-ladder rung (or of the
// router's built-in recovery mechanisms) during a synthesis. A solution
// with a non-empty Degradations list is complete and audited, but some
// stage ran in a fallback mode, so its quality metrics are not comparable
// to a clean run's.
type Degradation struct {
	// Stage is the pipeline stage that degraded: "schedule", "place" or
	// "route".
	Stage string
	// Event names the rung: "baseline-fallback", "reduced-effort",
	// "deadline", "seed-retry", "dilate", "ripup" or "defects".
	Event string
	// Detail is a human-readable elaboration.
	Detail string
}

// ErrStageDeadline is the cancellation cause installed by the degradation
// ladder's per-stage soft deadlines. It distinguishes "this stage
// overran its own budget" (recoverable: the ladder falls back) from the
// caller's context expiring (fatal: the whole request is out of time).
var ErrStageDeadline = errors.New("core: stage soft deadline exceeded")

// DefaultOptions returns the experimental parameters of Section V:
// t_c = 2 s, α = 0.9, β = 0.6, γ = 0.4, T0 = 10000, Imax = 150,
// Tmin = 1.0, w_e = 10.
func DefaultOptions() Options {
	return Options{
		Schedule: schedule.DefaultOptions(),
		Place:    place.DefaultParams(),
		Route:    route.DefaultParams(),
	}
}

// Solution is a complete physical synthesis result.
type Solution struct {
	Assay     *assay.Graph
	Comps     []chip.Component
	Opts      Options
	Schedule  *schedule.Result
	Placement *place.Placement
	Routing   *route.Result
	// Baseline records which algorithm produced the solution.
	Baseline bool
	// CPU is the wall-clock synthesis time (the Table I "CPU time"
	// column).
	CPU time.Duration
	// Stages breaks CPU down by pipeline stage (placement and routing
	// accumulate across congestion-recovery attempts). Like CPU it is
	// measurement, not solution content: fingerprints exclude it.
	Stages StageTimes
	// Degradations lists every degradation-ladder rung and recovery
	// mechanism the synthesis used, in the order they happened. Empty for
	// a clean run — which is every run the pinned fingerprints cover, so
	// recording these unconditionally cannot perturb them. A solution
	// with entries here was re-audited by internal/verify before being
	// returned.
	Degradations []Degradation
}

// Degraded reports whether any stage ran in a fallback mode.
func (s *Solution) Degraded() bool { return len(s.Degradations) > 0 }

// StageTimes is the wall-clock spent in each synthesis stage.
type StageTimes struct {
	Schedule time.Duration
	Place    time.Duration
	Route    time.Duration
}

// Metrics are the quantities the paper evaluates.
type Metrics struct {
	// ExecutionTime is the bioassay completion time (Table I).
	ExecutionTime unit.Time
	// Utilization is U_r of Eq. 1 in [0,1] (Table I).
	Utilization float64
	// ChannelLength is the total fabricated flow-channel length (Table I).
	ChannelLength unit.Length
	// CacheTime is the total channel-storage time (Fig. 8).
	CacheTime unit.Time
	// ChannelWashTime is the total flow-channel wash time (Fig. 9).
	ChannelWashTime unit.Time
	// ComponentWashTime is the total component wash time.
	ComponentWashTime unit.Time
	// Transports is the number of inter-component transportation tasks.
	Transports int
	// CPU is the synthesis wall-clock time (Table I).
	CPU time.Duration
}

// Metrics extracts the evaluation quantities from the solution.
func (s *Solution) Metrics() Metrics {
	return Metrics{
		ExecutionTime:     s.Schedule.Makespan,
		Utilization:       s.Schedule.Utilization(),
		ChannelLength:     s.Routing.TotalLength(),
		CacheTime:         s.Schedule.TotalChannelCacheTime(),
		ChannelWashTime:   s.Routing.ChannelWash,
		ComponentWashTime: s.Schedule.TotalComponentWashTime(),
		Transports:        len(s.Schedule.Transports),
		CPU:               s.CPU,
	}
}

// Validate re-checks every stage of the solution independently.
func (s *Solution) Validate() error {
	if err := schedule.Validate(s.Schedule); err != nil {
		return fmt.Errorf("core: schedule invalid: %w", err)
	}
	if err := s.Placement.Legal(0); err != nil {
		// Spacing was enforced at placement time; here only structural
		// legality (bounds, overlap) matters because dilation may have
		// rescaled coordinates.
		return fmt.Errorf("core: placement invalid: %w", err)
	}
	if err := route.Validate(s.Routing, s.Schedule, s.Comps, s.Placement, s.Opts.Route); err != nil {
		return fmt.Errorf("core: routing invalid: %w", err)
	}
	return nil
}

// Synthesize runs the proposed DCSA-aware top-down synthesis flow.
func Synthesize(g *assay.Graph, alloc chip.Allocation, opts Options) (*Solution, error) {
	return synthesize(context.Background(), g, alloc, opts, false)
}

// SynthesizeContext is Synthesize with cancellation and deadlines: every
// stage polls ctx at its natural step boundary (between scheduling
// commits, simulated-annealing temperature steps and per-task A*
// routings) and the flow aborts promptly with an error wrapping ctx's
// error. The polls read no algorithm state and consume no randomness, so
// an uncancelled context produces byte-identical solutions to
// Synthesize — the property the service cache and the pinned fingerprints
// in determinism_test.go rely on.
func SynthesizeContext(ctx context.Context, g *assay.Graph, alloc chip.Allocation, opts Options) (*Solution, error) {
	return synthesize(ctx, g, alloc, opts, false)
}

// SynthesizeBaseline runs the baseline algorithm BA: earliest-ready
// binding, construction-by-correction placement and routing.
func SynthesizeBaseline(g *assay.Graph, alloc chip.Allocation, opts Options) (*Solution, error) {
	return synthesize(context.Background(), g, alloc, opts, true)
}

// SynthesizeBaselineContext is SynthesizeBaseline with cancellation (see
// SynthesizeContext).
func SynthesizeBaselineContext(ctx context.Context, g *assay.Graph, alloc chip.Allocation, opts Options) (*Solution, error) {
	return synthesize(ctx, g, alloc, opts, true)
}

func synthesize(ctx context.Context, g *assay.Graph, alloc chip.Allocation, opts Options, baseline bool) (*Solution, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil assay")
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := alloc.Covers(g); err != nil {
		return nil, err
	}
	start := time.Now()
	comps := alloc.Instantiate()
	var stages StageTimes
	var degr []Degradation
	tr := obs.From(ctx)
	tr.Begin(obs.CatPipeline, "synthesize")
	defer tr.End(obs.CatPipeline, "synthesize")

	// Stage labels for CPU profiles: a profile taken under load
	// attributes samples to schedule/place/route directly. Labels ride
	// the goroutine, not the Solution, so determinism is untouched.
	setStage := func(stage string) {
		pprof.SetGoroutineLabels(pprof.WithLabels(ctx, pprof.Labels("stage", stage)))
	}
	defer pprof.SetGoroutineLabels(ctx)

	setStage("schedule")
	tr.Begin(obs.CatSchedule, "schedule")
	var sched *schedule.Result
	var err error
	if baseline {
		sched, err = schedule.ScheduleBaselineContext(ctx, g, comps, opts.Schedule)
	} else {
		sctx, cancel := stageCtx(ctx, opts.Degrade.ScheduleDeadline)
		sched, err = schedule.ScheduleContext(sctx, g, comps, opts.Schedule)
		if stageDeadlineMiss(ctx, sctx, err) {
			// Rung: the DCSA-aware scheduler overran its budget. The
			// baseline list-scheduler solves the same problem with a
			// strictly cheaper policy, so a schedulable assay stays
			// schedulable — at the cost of the paper's storage-aware
			// binding quality.
			tr.Instant(obs.CatSchedule, "degrade.schedule.fallback")
			degr = append(degr, Degradation{Stage: "schedule", Event: "baseline-fallback",
				Detail: fmt.Sprintf("DCSA scheduler exceeded %v; baseline list-scheduling substituted", opts.Degrade.ScheduleDeadline)})
			sched, err = schedule.ScheduleBaselineContext(ctx, g, comps, opts.Schedule)
		}
		cancel()
	}
	stages.Schedule = time.Since(start)
	tr.End(obs.CatSchedule, "schedule")
	if err != nil {
		return nil, fmt.Errorf("core: scheduling %q: %w", g.Name(), err)
	}

	nets := place.BuildNets(sched, opts.Place.Beta, opts.Place.Gamma)

	// Placement and routing with congestion recovery: the router first
	// dilates the placement (route.Solve); if the conflict pattern is
	// anchored at component boundaries and survives dilation, synthesis
	// retries from a different annealing seed — the standard
	// iterate-until-routable loop of physical design flows. Everything
	// stays deterministic: the seed ladder is fixed. The degradation
	// ladder extends the loop, never changes its clean path: rip-up
	// recovery arms an extra router mechanism, soft deadlines convert
	// stage overruns into retries, and ReducedEffort buys four more
	// attempts at quartered annealing effort.
	var routing *route.Result
	var used *place.Placement
	popts := opts.Place
	portfolio := opts.Portfolio
	tempering := opts.Tempering
	ropts := opts.Route
	if ropts.RipUpRounds == 0 {
		ropts.RipUpRounds = opts.Degrade.RipUpRounds
	}
	maxAttempts := 4
	if opts.Degrade.ReducedEffort && !baseline {
		maxAttempts = 8
	}
	var attempt int
	for ; ; attempt++ {
		placeStart := time.Now()
		setStage("place")
		tr.Begin(obs.CatPlace, "place")
		var pl *place.Placement
		if baseline {
			pl, err = place.ConstructContext(ctx, comps, nets, popts)
		} else {
			pctx, cancel := stageCtx(ctx, opts.Degrade.PlaceDeadline)
			pl, err = annealPlacement(pctx, comps, nets, popts, portfolio, tempering)
			if stageDeadlineMiss(ctx, pctx, err) {
				// Rung: the anneal overran its budget. Retry once at a
				// quarter of the moves per temperature step, single seed,
				// with no further deadline — the reduced schedule is
				// bounded and cheap, and a degraded placement beats none.
				reduced := popts
				reduced.Imax = max(1, popts.Imax/4)
				tr.Instant(obs.CatPlace, "degrade.place.reduced")
				degr = append(degr, Degradation{Stage: "place", Event: "reduced-effort",
					Detail: fmt.Sprintf("anneal exceeded %v; retried at Imax=%d without portfolio", opts.Degrade.PlaceDeadline, reduced.Imax)})
				pl, err = annealPortfolio(ctx, comps, nets, reduced, 0)
			}
			cancel()
		}
		stages.Place += time.Since(placeStart)
		tr.End(obs.CatPlace, "place")
		if err != nil {
			return nil, fmt.Errorf("core: placing %q: %w", g.Name(), err)
		}
		routeStart := time.Now()
		setStage("route")
		tr.Begin(obs.CatRoute, "route")
		rctx, rcancel := stageCtx(ctx, opts.Degrade.RouteDeadline)
		routing, used, err = route.SolveContext(rctx, sched, comps, pl, ropts, baseline)
		routeMiss := stageDeadlineMiss(ctx, rctx, err)
		rcancel()
		stages.Route += time.Since(routeStart)
		tr.End(obs.CatRoute, "route")
		if err == nil {
			break
		}
		if routeMiss {
			// Rung: a routing deadline overrun is one failed
			// congestion-recovery attempt, not a fatal error — the next
			// attempt starts from a different placement.
			degr = append(degr, Degradation{Stage: "route", Event: "deadline",
				Detail: fmt.Sprintf("routing attempt %d exceeded %v", attempt+1, opts.Degrade.RouteDeadline)})
		}
		if ctx.Err() != nil || attempt >= maxAttempts {
			return nil, fmt.Errorf("core: routing %q: %w", g.Name(), err)
		}
		popts.Seed++
		tr.Instant(obs.CatPipeline, "synthesize.retry",
			obs.Arg{Key: "attempt", Val: float64(attempt + 1)},
			obs.Arg{Key: "seed", Val: float64(popts.Seed)})
		if attempt+1 == 5 {
			// Rung: four full-effort attempts failed; the remaining
			// attempts run the last-resort reduced-effort restart.
			popts.Imax = max(1, opts.Place.Imax/4)
			portfolio = 0
			tempering = 0
			tr.Instant(obs.CatPlace, "degrade.place.restart")
			degr = append(degr, Degradation{Stage: "place", Event: "reduced-effort",
				Detail: fmt.Sprintf("4 routing attempts failed; annealing restarted at Imax=%d without portfolio", popts.Imax)})
		}
		// The baseline placer is deterministic in the seed; give it more
		// room instead.
		if baseline {
			if popts.PlaneW == 0 || popts.PlaneH == 0 {
				popts.PlaneW, popts.PlaneH = place.AutoPlane(comps, popts.Spacing)
			}
			popts.PlaneW += popts.PlaneW / 4
			popts.PlaneH += popts.PlaneH / 4
		}
	}

	// Recovery provenance from the successful attempt. None of these fire
	// on a clean run — the runs the pinned fingerprints cover — so the
	// recording is unconditional.
	if attempt > 0 {
		degr = append(degr, Degradation{Stage: "route", Event: "seed-retry",
			Detail: fmt.Sprintf("%d placement seed retries before routable (final seed %d)", attempt, popts.Seed)})
	}
	if routing.DilationTries > 0 {
		degr = append(degr, Degradation{Stage: "route", Event: "dilate",
			Detail: fmt.Sprintf("placement dilated %d times before routable", routing.DilationTries)})
	}
	if routing.RecoveryRounds > 0 {
		degr = append(degr, Degradation{Stage: "route", Event: "ripup",
			Detail: fmt.Sprintf("%d rip-up recovery rounds rescued stuck tasks", routing.RecoveryRounds)})
	}
	if routing.DefectCells > 0 {
		degr = append(degr, Degradation{Stage: "route", Event: "defects",
			Detail: fmt.Sprintf("%d routing cells marked defective by fault injection", routing.DefectCells)})
	}

	sol := &Solution{
		Assay:        g,
		Comps:        comps,
		Opts:         opts,
		Schedule:     sched,
		Placement:    used,
		Routing:      routing,
		Baseline:     baseline,
		CPU:          time.Since(start),
		Stages:       stages,
		Degradations: degr,
	}
	// A degraded solution is never returned unaudited: whatever fallback
	// produced it, it must still satisfy every constraint of the DCSA
	// formulation or the synthesis fails with a typed error. Fault-armed
	// runs audit too, even when no degradation fired, so an injected
	// defect can never leak a silently-invalid solution.
	if opts.Verify || len(degr) > 0 || fault.From(ctx).Enabled() {
		setStage("verify")
		if err := Audit(sol).Err(); err != nil {
			return nil, fmt.Errorf("core: synthesized %q: %w", g.Name(), err)
		}
	}
	return sol, nil
}

// stageCtx wraps ctx with one stage's soft deadline, tagging the timeout
// with ErrStageDeadline so the ladder can tell its own budget expiring
// from the caller's. d <= 0 installs nothing.
func stageCtx(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeoutCause(ctx, d, ErrStageDeadline)
}

// stageDeadlineMiss reports whether err is the stage's own soft deadline
// expiring — as opposed to the caller's context dying (fatal) or an
// organic stage failure (handled by the retry loop).
func stageDeadlineMiss(parent, stage context.Context, err error) bool {
	return err != nil && parent.Err() == nil &&
		errors.Is(err, context.DeadlineExceeded) &&
		errors.Is(context.Cause(stage), ErrStageDeadline)
}

// Audit runs the independent constraint auditor on a complete solution
// and returns its structured report. Unlike Validate, which reuses the
// per-stage validators, the auditor re-derives every constraint of the
// DCSA formulation from scratch (see internal/verify).
//
// A solution whose schedule came from the degradation ladder's
// baseline-fallback rung is audited under baseline scheduling rules: the
// list-scheduler deliberately ignores resident fluids, so holding it to
// the proposed flow's Case I policy would flag the fallback itself as a
// violation. Every physical constraint is still checked in full.
func Audit(sol *Solution) *verify.Report {
	if sol == nil {
		return verify.Audit(verify.Input{})
	}
	baselineSchedule := sol.Baseline
	for _, d := range sol.Degradations {
		if d.Stage == "schedule" && d.Event == "baseline-fallback" {
			baselineSchedule = true
		}
	}
	return verify.Audit(verify.Input{
		Assay:     sol.Assay,
		Comps:     sol.Comps,
		Schedule:  sol.Schedule,
		Placement: sol.Placement,
		Routing:   sol.Routing,
		Baseline:  baselineSchedule,
	})
}
