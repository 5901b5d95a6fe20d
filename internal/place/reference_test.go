package place

import (
	"fmt"
	"math"

	"repro/internal/chip"
	"repro/internal/obs"
	"repro/internal/rng"
)

// This file keeps the seed's Metropolis move loop — transform, its undo
// record, and the step loops of the plain and the tempered annealer — as
// the executable specification of chain, as referenceQuench is of
// quench. It mutates the placement to score a move, blanks both
// rectangles of a swap to test its fit, checks legality with fitsAt and
// takes every energy as a float sum over Placement.Dist.

// refMove records one applied transformation operation: the components
// it changed and their previous rectangles. A single-component move has
// j == i and oj == oi.
type refMove struct {
	i, j   int
	oi, oj Rect
}

// undo restores the rectangles the move replaced.
func (m refMove) undo(p *Placement) {
	p.Rects[m.i], p.Rects[m.j] = m.oi, m.oj
}

// referenceTransform applies one random legal transformation operation to
// p and returns the move together with the Eq. 3 energy delta of the
// move, evaluated over the incident nets only. ok is false when the
// sampled move was illegal and p is unchanged.
func referenceTransform(p *Placement, spacing int, r *rng.Source, ix *NetIndex) (m refMove, delta float64, ok bool) {
	n := len(p.Rects)
	switch r.Intn(3) {
	case 0: // translate one component
		i := r.Intn(n)
		old := p.Rects[i]
		cand := old
		cand.X = spacing + r.Intn(max(1, p.W-2*spacing-cand.W+1))
		cand.Y = spacing + r.Intn(max(1, p.H-2*spacing-cand.H+1))
		if !fitsAt(p, i, cand, spacing) {
			return refMove{}, 0, false
		}
		before := ix.CompEnergy(p, i)
		p.Rects[i] = cand
		delta = ix.CompEnergy(p, i) - before
		return refMove{i: i, j: i, oi: old, oj: old}, delta, true
	case 1: // rotate one component 90°
		i := r.Intn(n)
		old := p.Rects[i]
		cand := Rect{X: old.X, Y: old.Y, W: old.H, H: old.W}
		if !fitsAt(p, i, cand, spacing) {
			return refMove{}, 0, false
		}
		before := ix.CompEnergy(p, i)
		p.Rects[i] = cand
		delta = ix.CompEnergy(p, i) - before
		return refMove{i: i, j: i, oi: old, oj: old}, delta, true
	default: // swap the positions of two components
		if n < 2 {
			return refMove{}, 0, false
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
			return refMove{}, 0, false
		}
		p.Rects[i], p.Rects[j] = oi, oj
		before := ix.PairEnergy(p, i, j)
		p.Rects[i], p.Rects[j] = ci, cj
		delta = ix.PairEnergy(p, i, j) - before
		return refMove{i: i, j: j, oi: oi, oj: oj}, delta, true
	}
}

// PairEnergy is the seed's scoring of a swap: the Eq. 3 energy
// restricted to nets incident to component i or component j, with nets
// joining the pair counted once — the slice of the sum a swap can change.
func (ix *NetIndex) PairEnergy(p *Placement, i, j int) float64 {
	e := ix.CompEnergy(p, i)
	for _, k := range ix.byComp[j] {
		n := &ix.nets[k]
		if int(n.A) == i || int(n.B) == i {
			continue // joins the pair: already counted via i
		}
		e += p.Dist(n.A, n.B) * n.CP
	}
	return e
}

// refChain is the seed's per-chain state: a placement and its energy.
type refChain struct {
	p   *Placement
	cur float64
}

// referenceSteps runs moves seed moves on ch at temperature t and
// returns the step's move outcomes, updating best and *bestE.
func referenceSteps(ch *refChain, moves int, t float64, r *rng.Source, spacing int, nets []Net, ix *NetIndex, best *Placement, bestE *float64) (accepted, rejected, infeasible int) {
	for i := 0; i < moves; i++ {
		m, delta, ok := referenceTransform(ch.p, spacing, r, ix)
		if !ok {
			infeasible++
			continue
		}
		next, haveNext := 0.0, false
		if delta > -tieEps && delta < tieEps {
			next, haveNext = Energy(ch.p, nets), true
			delta = next - ch.cur
		}
		if delta < 0 || r.Float64() < math.Exp(-delta/t) {
			if !haveNext {
				next = Energy(ch.p, nets)
			}
			ch.cur = next
			if ch.cur < *bestE {
				*bestE = ch.cur
				best.CopyFrom(ch.p)
			}
			accepted++
		} else {
			m.undo(ch.p)
			rejected++
		}
	}
	return accepted, rejected, infeasible
}

// referenceAnneal is the seed's annealSteps: it returns the best
// placement before the final quench and the telemetry of every
// temperature step.
func referenceAnneal(comps []chip.Component, nets []Net, pr Params) (*Placement, []obs.AnnealStep, error) {
	w, h := pr.PlaneW, pr.PlaneH
	if w == 0 || h == 0 {
		w, h = AutoPlane(comps, pr.Spacing)
	}
	r := rng.New(pr.Seed)
	p, err := randomPlacement(comps, w, h, pr.Spacing, r)
	if err != nil {
		return nil, nil, err
	}
	ix := BuildNetIndex(len(comps), nets)
	ch := &refChain{p: p, cur: Energy(p, nets)}
	best := p.Clone()
	bestE := ch.cur
	var steps []obs.AnnealStep
	for t := pr.T0; t > pr.Tmin; t *= pr.Alpha {
		a, rj, inf := referenceSteps(ch, pr.Imax, t, r, pr.Spacing, nets, ix, best, &bestE)
		steps = append(steps, obs.AnnealStep{
			Seed: pr.Seed, Temp: t, Cur: ch.cur, Best: bestE,
			Accepted: a, Rejected: rj, Infeasible: inf,
		})
	}
	return best, steps, nil
}

// referenceTempered is the seed's tempering loop on one goroutine, whose
// exchange swaps placements and energies: it returns the winning rung's
// best placement before the final quench and the telemetry of every rung
// at every round, in the order AnnealTemperedContext emits it.
func referenceTempered(comps []chip.Component, nets []Net, pr Params, replicas int) (*Placement, []obs.AnnealStep, error) {
	if replicas < 2 {
		return nil, nil, fmt.Errorf("referenceTempered needs at least 2 replicas, got %d", replicas)
	}
	w, h := pr.PlaneW, pr.PlaneH
	if w == 0 || h == 0 {
		w, h = AutoPlane(comps, pr.Spacing)
	}
	rounds := 0
	for t := pr.T0; t > pr.Tmin; t *= pr.Alpha {
		rounds++
	}
	ix := BuildNetIndex(len(comps), nets)
	type rung struct {
		temp  float64
		r     *rng.Source
		ch    refChain
		best  *Placement
		bestE float64
		a, rj int
		inf   int
	}
	reps := make([]*rung, replicas)
	for i := range reps {
		frac := float64(i) / float64(replicas-1)
		rep := &rung{temp: pr.T0 * math.Pow(pr.Tmin/pr.T0, frac), r: rng.New(pr.Seed + uint64(i))}
		p, err := randomPlacement(comps, w, h, pr.Spacing, rep.r)
		if err != nil {
			return nil, nil, err
		}
		rep.ch = refChain{p: p, cur: Energy(p, nets)}
		rep.best = p.Clone()
		rep.bestE = rep.ch.cur
		reps[i] = rep
	}
	swapRng := rng.New(pr.Seed ^ 0xA5A5_5EED_0BAD_F00D)
	var steps []obs.AnnealStep
	for round := 0; round < rounds; round++ {
		for _, rep := range reps {
			rep.a, rep.rj, rep.inf = referenceSteps(&rep.ch, pr.Imax, rep.temp, rep.r, pr.Spacing, nets, ix, rep.best, &rep.bestE)
		}
		for i := round % 2; i+1 < replicas; i += 2 {
			a, b := reps[i], reps[i+1]
			u := swapRng.Float64()
			arg := (1/a.temp - 1/b.temp) * (a.ch.cur - b.ch.cur)
			if arg >= 0 || u < math.Exp(arg) {
				a.ch.p, b.ch.p = b.ch.p, a.ch.p
				a.ch.cur, b.ch.cur = b.ch.cur, a.ch.cur
			}
		}
		for i, rep := range reps {
			steps = append(steps, obs.AnnealStep{
				Seed: pr.Seed + uint64(i), Temp: rep.temp, Cur: rep.ch.cur, Best: rep.bestE,
				Accepted: rep.a, Rejected: rep.rj, Infeasible: rep.inf,
			})
		}
	}
	winner := 0
	for i := 1; i < replicas; i++ {
		if reps[i].bestE < reps[winner].bestE {
			winner = i
		}
	}
	return reps[winner].best, steps, nil
}
