package place

import (
	"context"
	"fmt"
	"math"

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
// Accept/reject is evaluated incrementally: each move scores only the
// nets incident to the component(s) it touches (via NetIndex). The full
// Energy sum is recomputed only for accepted moves and for near-tie moves
// (|Δ| < tieEps), which keeps the running total and the best-so-far
// comparison bit-identical to recomputing Energy every move: the
// incident-net delta and the full-sum delta agree mathematically but
// differ by summation-order roundoff (~1e-11 here), and on energy-neutral
// moves that roundoff decides whether the Metropolis draw is consumed at
// all — so ties must fall back to the full sum to preserve the RNG
// stream. TestIncrementalDeltaMatchesFull pins the agreement and
// TestSolutionFingerprints (repo root) pins the resulting trajectories.
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
	r := rng.New(pr.Seed)
	p, err := randomPlacement(comps, w, h, pr.Spacing, r)
	if err != nil {
		return nil, nil, err
	}
	ix := BuildNetIndex(len(comps), nets)
	cur := Energy(p, nets)
	best := p.Clone()
	bestE := cur

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
		var accepted, rejected, infeasible int
		for i := 0; i < pr.Imax; i++ {
			m, delta, ok := transform(p, pr.Spacing, r, ix)
			if !ok {
				infeasible++
				continue
			}
			next, haveNext := 0.0, false
			if delta > -tieEps && delta < tieEps {
				next, haveNext = Energy(p, nets), true
				delta = next - cur
			}
			if delta < 0 || r.Float64() < math.Exp(-delta/t) {
				if !haveNext {
					next = Energy(p, nets)
				}
				cur = next
				if cur < bestE {
					bestE = cur
					best.CopyFrom(p)
				}
				accepted++
			} else {
				m.undo(p)
				rejected++
			}
		}
		tr.AnnealStep(obs.AnnealStep{
			Seed: pr.Seed, Temp: t, Cur: cur, Best: bestE,
			Accepted: accepted, Rejected: rejected, Infeasible: infeasible,
		})
	}
	if tr.Enabled() {
		tr.EndTID(obs.CatPlace, "anneal", tid)
	}
	return best, ix, nil
}

// move records one applied transformation operation: the components it
// changed and their previous rectangles. A single-component move has
// j == i and oj == oi, so undo needs no branch. It is a value, not a
// closure, so recording a move allocates nothing.
type move struct {
	i, j   int
	oi, oj Rect
}

// undo restores the rectangles the move replaced.
func (m move) undo(p *Placement) {
	p.Rects[m.i], p.Rects[m.j] = m.oi, m.oj
}

// transform applies one random legal transformation operation to p and
// returns the move (for undo) together with the Eq. 3 energy delta of the
// move, evaluated over the incident nets only. ok is false when the
// sampled move was illegal and p is unchanged.
func transform(p *Placement, spacing int, r *rng.Source, ix *NetIndex) (m move, delta float64, ok bool) {
	n := len(p.Rects)
	switch r.Intn(3) {
	case 0: // translate one component
		i := r.Intn(n)
		old := p.Rects[i]
		cand := old
		cand.X = spacing + r.Intn(max(1, p.W-2*spacing-cand.W+1))
		cand.Y = spacing + r.Intn(max(1, p.H-2*spacing-cand.H+1))
		if !fitsAt(p, i, cand, spacing) {
			return move{}, 0, false
		}
		before := ix.CompEnergy(p, i)
		p.Rects[i] = cand
		delta = ix.CompEnergy(p, i) - before
		return move{i: i, j: i, oi: old, oj: old}, delta, true
	case 1: // rotate one component 90°
		i := r.Intn(n)
		old := p.Rects[i]
		cand := Rect{X: old.X, Y: old.Y, W: old.H, H: old.W}
		if !fitsAt(p, i, cand, spacing) {
			return move{}, 0, false
		}
		before := ix.CompEnergy(p, i)
		p.Rects[i] = cand
		delta = ix.CompEnergy(p, i) - before
		return move{i: i, j: i, oi: old, oj: old}, delta, true
	default: // swap the positions of two components
		if n < 2 {
			return move{}, 0, false
		}
		i := r.Intn(n)
		j := r.Intn(n - 1)
		if j >= i {
			j++
		}
		oi, oj := p.Rects[i], p.Rects[j]
		ci := Rect{X: oj.X, Y: oj.Y, W: oi.W, H: oi.H}
		cj := Rect{X: oi.X, Y: oi.Y, W: oj.W, H: oj.H}
		// Temporarily clear both to test pairwise fits.
		p.Rects[i] = Rect{}
		p.Rects[j] = Rect{}
		okI := fitsAt(p, i, ci, spacing)
		p.Rects[i] = ci
		okJ := okI && fitsAt(p, j, cj, spacing)
		if !okI || !okJ {
			p.Rects[i] = oi
			p.Rects[j] = oj
			return move{}, 0, false
		}
		p.Rects[i], p.Rects[j] = oi, oj
		before := ix.PairEnergy(p, i, j)
		p.Rects[i], p.Rects[j] = ci, cj
		delta = ix.PairEnergy(p, i, j) - before
		return move{i: i, j: j, oi: oi, oj: oj}, delta, true
	}
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
