package place

import (
	"context"
	"fmt"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Anneal runs the simulated-annealing placer of Algorithm 2 (lines 1-8):
// starting from a random placement, it applies transformation operations
// (translate, rotate, swap) for Imax iterations per temperature step,
// accepting uphill moves with probability exp(-Δ/T), and cools T
// geometrically by Alpha until Tmin. It returns the best placement seen.
//
// The moves run on one Metropolis chain (see chain), which scores each
// move on the nets incident to the components it touches and reproduces
// the full-recompute trajectory bit for bit.
// TestAnnealMatchesReference pins the agreement with that trajectory and
// TestSolutionFingerprints (repo root) pins the resulting placements.
func Anneal(comps []chip.Component, nets []Net, pr Params) (*Placement, error) {
	return AnnealContext(context.Background(), comps, nets, pr)
}

// AnnealContext is Anneal with cancellation: ctx is polled once per
// temperature step (and between quench passes), so a cancelled run
// aborts within one Imax move batch — microseconds to low milliseconds
// on the Table I benchmarks. The poll reads no annealer state and
// consumes no randomness, so an uncancelled context reproduces Anneal
// bit for bit.
func AnnealContext(ctx context.Context, comps []chip.Component, nets []Net, pr Params) (*Placement, error) {
	best, ix, err := annealSteps(ctx, comps, nets, pr)
	if err != nil {
		return nil, err
	}
	tr := obs.From(ctx)
	tid := int64(pr.Seed)
	if tr.Enabled() {
		tr.BeginTID(obs.CatPlace, "quench", tid)
	}
	// Final quench: greedy single-component relocation until the weighted
	// energy reaches a local optimum. This is the standard low-temperature
	// tail of SA floorplanners, made explicit and deterministic.
	if err := quenchCtx(ctx, best, nets, ix, pr.Spacing); err != nil {
		return nil, err
	}
	if tr.Enabled() {
		tr.EndTID(obs.CatPlace, "quench", tid)
	}
	if err := best.Legal(pr.Spacing); err != nil {
		return nil, fmt.Errorf("place: annealer produced illegal placement: %w", err)
	}
	return best, nil
}

// tieEps separates genuine energy deltas (multiples of half a cell times
// a connection priority) from summation-order roundoff noise (~1e-11 at
// these energy magnitudes). Below it a move or candidate is treated as a
// potential tie and scored with the full Eq. 3 sum.
const tieEps = 1e-6

// annealSteps runs the temperature steps of AnnealContext and returns the
// best placement seen, before the final quench, with the net index built
// for it.
func annealSteps(ctx context.Context, comps []chip.Component, nets []Net, pr Params) (*Placement, *NetIndex, error) {
	w, h := pr.PlaneW, pr.PlaneH
	if w == 0 || h == 0 {
		w, h = AutoPlane(comps, pr.Spacing)
	}
	if pr.Alpha <= 0 || pr.Alpha >= 1 {
		return nil, nil, fmt.Errorf("place: cooling factor alpha %v outside (0,1)", pr.Alpha)
	}
	if pr.T0 <= pr.Tmin || pr.Tmin <= 0 {
		return nil, nil, fmt.Errorf("place: invalid temperature range T0=%v Tmin=%v", pr.T0, pr.Tmin)
	}
	if err := checkChainRange(comps, w, h, pr.Spacing); err != nil {
		return nil, nil, err
	}
	r := rng.New(pr.Seed)
	p, err := randomPlacement(comps, w, h, pr.Spacing, r)
	if err != nil {
		return nil, nil, err
	}
	ix := BuildNetIndex(len(comps), nets)
	best := p.Clone()
	var ch chain
	ch.init(p, ix, pr.Spacing)
	bestE := ch.cur

	// Telemetry: one sample per temperature step, emitted at the step
	// boundary (the same place the cancellation poll sits). The hooks
	// read cur/bestE and count move outcomes in plain integers — they
	// never touch the RNG stream or the float comparisons, so a traced
	// anneal is bit-identical to an untraced one.
	tr := obs.From(ctx)
	tid := int64(pr.Seed)
	if tr.Enabled() {
		tr.NameTrack(tid, fmt.Sprintf("anneal seed %d", pr.Seed))
		tr.BeginTID(obs.CatPlace, "anneal", tid)
	}

	// The fault check shares the temperature-step poll boundary with the
	// ctx poll: outside the SA RNG path, so an un-armed plan cannot
	// perturb the anneal trajectory.
	flt := fault.From(ctx)
	for t := pr.T0; t > pr.Tmin; t *= pr.Alpha {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("place: anneal aborted at T=%.3g: %w", t, err)
		}
		if err := flt.Err(fault.PlaceStepFail); err != nil {
			return nil, nil, fmt.Errorf("place: anneal aborted at T=%.3g: %w", t, err)
		}
		accepted, rejected, infeasible := ch.run(pr.Imax, t, r, best, &bestE)
		tr.AnnealStep(obs.AnnealStep{
			Seed: pr.Seed, Temp: t, Cur: ch.cur, Best: bestE,
			Accepted: accepted, Rejected: rejected, Infeasible: infeasible,
		})
	}
	if tr.Enabled() {
		tr.EndTID(obs.CatPlace, "anneal", tid)
	}
	return best, ix, nil
}

// Construct is the baseline construction-by-correction placer the paper
// compares against: components are first packed greedily in ID order
// (construction), then a bounded number of sequential correction passes
// relocate each component to the position minimising plain unweighted
// wirelength to its neighbours. It is deliberately blind to connection
// priorities (concurrency and wash time).
func Construct(comps []chip.Component, nets []Net, pr Params) (*Placement, error) {
	return ConstructContext(context.Background(), comps, nets, pr)
}

// ConstructContext is Construct with a cancellation poll between
// correction passes; an uncancelled context reproduces Construct exactly.
func ConstructContext(ctx context.Context, comps []chip.Component, nets []Net, pr Params) (*Placement, error) {
	w, h := pr.PlaneW, pr.PlaneH
	if w == 0 || h == 0 {
		w, h = AutoPlane(comps, pr.Spacing)
	}
	p := &Placement{W: w, H: h, Rects: make([]Rect, len(comps))}
	// Construction: row-major packing in ID order.
	x, y, rowH := pr.Spacing, pr.Spacing, 0
	for i, c := range comps {
		fw, fh := c.Kind.W, c.Kind.H
		if x+fw > w-pr.Spacing {
			x = pr.Spacing
			y += rowH + pr.Spacing
			rowH = 0
		}
		if y+fh > h-pr.Spacing {
			return nil, fmt.Errorf("place: plane %dx%d too small for row packing", w, h)
		}
		p.Rects[i] = Rect{X: x, Y: y, W: fw, H: fh}
		x += fw + pr.Spacing
		if fh > rowH {
			rowH = fh
		}
	}
	// Unweighted nets: the baseline sees connectivity, not priorities.
	flat := make([]Net, len(nets))
	for i, n := range nets {
		flat[i] = Net{A: n.A, B: n.B, CP: 1}
	}
	ix := BuildNetIndex(len(comps), flat)
	// Correction: sequential single-component relocation passes, scored
	// incrementally on the moved component's incident nets.
	const passes = 3
	flt := fault.From(ctx)
	for pass := 0; pass < passes; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("place: baseline correction aborted: %w", err)
		}
		if err := flt.Err(fault.PlaceStepFail); err != nil {
			return nil, fmt.Errorf("place: baseline correction aborted: %w", err)
		}
		improved := false
		for i := range p.Rects {
			old := p.Rects[i]
			bestRect, bestE := old, ix.CompEnergy(p, i)
			cand := old
			for yy := pr.Spacing; yy+cand.H <= h-pr.Spacing; yy++ {
				for xx := pr.Spacing; xx+cand.W <= w-pr.Spacing; xx++ {
					cand.X, cand.Y = xx, yy
					if overlapsAny(p, i, cand, pr.Spacing) {
						continue
					}
					if e := ix.CompEnergyAt(p, i, cand); e < bestE {
						bestE = e
						bestRect = cand
					}
				}
			}
			if bestRect != old {
				p.Rects[i] = bestRect
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	if err := p.Legal(pr.Spacing); err != nil {
		return nil, fmt.Errorf("place: baseline produced illegal placement: %w", err)
	}
	return p, nil
}
