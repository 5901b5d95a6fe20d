package place

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/chip"
	"repro/internal/rng"
)

// chain is one Metropolis chain of Algorithm 2: a placement, its
// committed footprints as bound arrays, and the nets in flat form. The
// plain annealer runs one chain; every tempering rung runs its own, and
// the replica exchange swaps chains between rungs.
//
// A chain reproduces the original move loop, kept in the tests as
// referenceAnneal, bit for bit: the same RNG draws in the same order, the
// same legality verdicts and the same floating-point energies (see
// DESIGN §6). Only the work changes:
//
//   - legality is a branch-free count of the committed footprints that
//     the candidate, grown by the spacing, meets, minus the moved
//     components' own, where overlapsAny scanned a placement whose
//     swapped entries were blanked;
//   - a distance is computed in integers, as (|2ΔX+ΔW| + |2ΔY+ΔH|)/2 over
//     doubled centres. Every centre is a half-integer far below 2⁵², so
//     Placement.Dist is exact and returns the same value; each term is
//     then the same product, summed in the same order;
//   - a move whose components carry no net skips both energy sums: no
//     term of Eq. 3 changes, so the full sum would return cur exactly.
type chain struct {
	p       *Placement // committed rectangles, written only by commit
	spacing int
	cur     float64 // Eq. 3 energy of the committed placement

	// x0, y0, x1 and y1 are the committed footprints: component k covers
	// [x0[k], x1[k]) × [y0[k], y1[k]). A zero-width footprint, which
	// overlapsAny skips, is stored as a box that meets nothing.
	x0, y0, x1, y1 []int32
	// cx and cy are the doubled centres 2X+W and 2Y+H. They hold the
	// committed placement, except between propose and commit or undo,
	// when the moved components' entries hold their candidates.
	cx, cy []int32

	// na, nb and cp are the nets' endpoints and priorities in net order,
	// the order of Energy's sum.
	na, nb []int32
	cp     []float64
	// byComp lists the nets incident to each component, in NetIndex
	// order; it is the NetIndex's own, shared read-only.
	byComp [][]int32

	// The pending move puts component i at ni and j at nj; a
	// single-component move has j == i and nj == ni.
	i, j   int
	ni, nj Rect
}

// chainLimit bounds the plane sides, the spacing and the footprint sides
// a chain accepts, so that every coordinate, grown box and doubled centre
// it forms, and every distance, stays far inside int32 (and so inside a
// 32-bit int). No plane that large could be quenched anyway: the
// quench's scratch alone would hold 2⁴⁸ cells.
const chainLimit = 1 << 24

// A zero-width footprint is stored as the inverted box [emptyLo, emptyHi)
// on both axes. No grown candidate starts left of emptyHi, so the test
// gx0 < x1 fails and the box meets nothing.
const (
	emptyLo = 1 << 30
	emptyHi = -(1 << 30)
)

// checkChainRange rejects inputs whose coordinates a chain cannot hold.
func checkChainRange(comps []chip.Component, w, h, spacing int) error {
	in := func(v int) bool { return -chainLimit <= v && v <= chainLimit }
	if !in(w) || !in(h) || !in(spacing) {
		return fmt.Errorf("place: plane %dx%d with spacing %d exceeds %d cells", w, h, spacing, chainLimit)
	}
	for i, c := range comps {
		if !in(c.Kind.W) || !in(c.Kind.H) {
			return fmt.Errorf("place: component %d footprint %dx%d exceeds %d cells", i, c.Kind.W, c.Kind.H, chainLimit)
		}
	}
	return nil
}

// init makes c a chain over placement p, which it takes ownership of,
// with the nets ix indexes, and computes its energy. Its arrays take two
// allocations.
func (c *chain) init(p *Placement, ix *NetIndex, spacing int) {
	n, m := len(p.Rects), len(ix.nets)
	ints := make([]int32, 6*n+2*m)
	cut := func(k int) []int32 {
		s := ints[:k:k]
		ints = ints[k:]
		return s
	}
	*c = chain{
		p: p, spacing: spacing,
		x0: cut(n), y0: cut(n), x1: cut(n), y1: cut(n), cx: cut(n), cy: cut(n),
		na: cut(m), nb: cut(m), cp: make([]float64, m),
		byComp: ix.byComp,
	}
	for k, nt := range ix.nets {
		c.na[k], c.nb[k], c.cp[k] = int32(nt.A), int32(nt.B), nt.CP
	}
	for k, r := range p.Rects {
		c.place(k, r)
	}
	c.cur = c.energy()
}

// place commits rectangle r for component k.
func (c *chain) place(k int, r Rect) {
	c.p.Rects[k] = r
	if r.W == 0 {
		c.x0[k], c.x1[k], c.y0[k], c.y1[k] = emptyLo, emptyHi, emptyLo, emptyHi
	} else {
		c.x0[k], c.x1[k] = int32(r.X), int32(r.X+r.W)
		c.y0[k], c.y1[k] = int32(r.Y), int32(r.Y+r.H)
	}
	c.setCentre(k, r)
}

// setCentre writes the doubled centre of r as component k's.
func (c *chain) setCentre(k int, r Rect) {
	c.cx[k], c.cy[k] = int32(2*r.X+r.W), int32(2*r.Y+r.H)
}

// energy is Energy over the current centres: the same terms, each the
// same product, added in net order.
func (c *chain) energy() float64 {
	cx, cy := c.cx, c.cy
	nb := c.nb[:len(c.na)]
	cp := c.cp[:len(c.na)]
	var e float64
	for k, a := range c.na {
		b := nb[k]
		d := abs(int(cx[a])-int(cx[b])) + abs(int(cy[a])-int(cy[b]))
		e += float64(d) * 0.5 * cp[k]
	}
	return e
}

// incident is CompEnergy over the current centres: the Eq. 3 energy of
// the nets incident to component i, summed in NetIndex order.
func (c *chain) incident(i int) float64 { return c.addNets(0, i, -1) }

// pair is PairEnergy over the current centres: incident(i), then the
// nets of j that do not join the pair, in NetIndex order.
func (c *chain) pair(i, j int) float64 { return c.addNets(c.incident(i), j, i) }

// addNets adds to e, in NetIndex order, the terms of the nets incident to
// component k whose far end is not skip. A net incident to k has k at
// one end, so its far end is na ^ nb ^ k (k itself for a self-net).
func (c *chain) addNets(e float64, k, skip int) float64 {
	xk, yk := int(c.cx[k]), int(c.cy[k])
	for _, nk := range c.byComp[k] {
		o := int(c.na[nk]^c.nb[nk]) ^ k
		if o == skip {
			continue // joins the pair: already counted via skip
		}
		d := abs(xk-int(c.cx[o])) + abs(yk-int(c.cy[o]))
		e += float64(d) * 0.5 * c.cp[nk]
	}
	return e
}

// abs is |v| without a branch: m is all ones for a negative v.
func abs(v int) int {
	m := v >> (bits.UintSize - 1)
	return (v ^ m) - m
}

// netless reports whether component k carries no net.
func (c *chain) netless(k int) bool { return len(c.byComp[k]) == 0 }

// inPlane reports whether r keeps the spacing margin to the plane border.
func (c *chain) inPlane(r Rect) bool {
	s := c.spacing
	return r.X >= s && r.Y >= s && r.X+r.W <= c.p.W-s && r.Y+r.H <= c.p.H-s
}

// hits counts the committed footprints that r, grown by the spacing,
// meets: expandedOverlaps for every component, its own included. Each
// of the four strict comparisons a < b is the sign bit of a − b, and a
// footprint is met when all four are set, so the loop has no branch.
func (c *chain) hits(r Rect) int {
	s := c.spacing
	gx0, gx1 := int32(r.X-s), int32(r.X+r.W+s)
	gy0, gy1 := int32(r.Y-s), int32(r.Y+r.H+s)
	x0 := c.x0
	x1, y0, y1 := c.x1[:len(x0)], c.y0[:len(x0)], c.y1[:len(x0)]
	var n uint32
	for k, a := range x0 {
		n += uint32((gx0-x1[k])&(a-gx1)&(gy0-y1[k])&(y0[k]-gy1)) >> 31
	}
	return int(n)
}

// meets is hits for component k alone: 1 when r, grown by the spacing,
// meets k's committed footprint, else 0.
func (c *chain) meets(r Rect, k int) int {
	s := c.spacing
	gx0, gx1 := int32(r.X-s), int32(r.X+r.W+s)
	gy0, gy1 := int32(r.Y-s), int32(r.Y+r.H+s)
	return int(uint32((gx0-c.x1[k])&(c.x0[k]-gx1)&(gy0-c.y1[k])&(c.y0[k]-gy1)) >> 31)
}

// propose samples one transformation operation (translate, rotate or
// swap) with the original loop's draws, in its order. ok is false when the
// move is illegal; then nothing changed. Otherwise the candidates'
// centres are written and the move is pending until commit or undo;
// delta is the incident-net energy change, and netless reports that no
// net touches the moved components, in which case delta is not computed.
func (c *chain) propose(r *rng.Source) (delta float64, netless, ok bool) {
	p := c.p
	n := len(p.Rects)
	switch r.Intn(3) {
	case 0: // translate one component
		i := r.Intn(n)
		cand := p.Rects[i]
		s := c.spacing
		cand.X = s + r.Intn(max(1, p.W-2*s-cand.W+1))
		cand.Y = s + r.Intn(max(1, p.H-2*s-cand.H+1))
		return c.single(i, cand)
	case 1: // rotate one component 90°
		i := r.Intn(n)
		old := p.Rects[i]
		return c.single(i, Rect{X: old.X, Y: old.Y, W: old.H, H: old.W})
	default: // swap the positions of two components
		if n < 2 {
			return 0, false, false
		}
		i := r.Intn(n)
		j := r.Intn(n - 1)
		if j >= i {
			j++
		}
		return c.swap(i, j)
	}
}

// single proposes component i at cand.
func (c *chain) single(i int, cand Rect) (delta float64, netless, ok bool) {
	if !c.inPlane(cand) || c.hits(cand) != c.meets(cand, i) {
		return 0, false, false
	}
	c.i, c.j, c.ni, c.nj = i, i, cand, cand
	if c.netless(i) {
		c.setCentre(i, cand)
		return 0, true, true
	}
	before := c.incident(i)
	c.setCentre(i, cand)
	return c.incident(i) - before, false, true
}

// swap proposes exchanging the positions of components i and j, each
// keeping its own footprint. The original loop tested i's candidate
// against every component but the pair, then j's against every component
// but the pair plus i's candidate, which is what the two counts say.
func (c *chain) swap(i, j int) (delta float64, netless, ok bool) {
	oi, oj := c.p.Rects[i], c.p.Rects[j]
	ci := Rect{X: oj.X, Y: oj.Y, W: oi.W, H: oi.H}
	cj := Rect{X: oi.X, Y: oi.Y, W: oj.W, H: oj.H}
	if !c.inPlane(ci) || !c.inPlane(cj) ||
		c.hits(ci) != c.meets(ci, i)+c.meets(ci, j) ||
		c.hits(cj)+c.meetsCand(cj, ci) != c.meets(cj, i)+c.meets(cj, j) {
		return 0, false, false
	}
	c.i, c.j, c.ni, c.nj = i, j, ci, cj
	if c.netless(i) && c.netless(j) {
		c.setCentre(i, ci)
		c.setCentre(j, cj)
		return 0, true, true
	}
	before := c.pair(i, j)
	c.setCentre(i, ci)
	c.setCentre(j, cj)
	return c.pair(i, j) - before, false, true
}

// meetsCand is 1 when r, grown by the spacing, meets the candidate
// footprint q, else 0; like overlapsAny, it ignores a zero-width q.
func (c *chain) meetsCand(r, q Rect) int {
	if q.W != 0 && r.expandedOverlaps(q, c.spacing) {
		return 1
	}
	return 0
}

// commit makes the pending move the committed placement.
func (c *chain) commit() {
	c.place(c.i, c.ni)
	c.place(c.j, c.nj)
}

// undo drops the pending move: the moved components' centres go back to
// their committed rectangles, which propose never touches.
func (c *chain) undo() {
	c.setCentre(c.i, c.p.Rects[c.i])
	c.setCentre(c.j, c.p.Rects[c.j])
}

// run makes moves Metropolis moves at temperature t, drawing from r, and
// copies every placement that beats *bestE into best. It returns the
// step's move outcomes.
//
// A legal move is scored on its incident nets. The full Eq. 3 sum is
// taken only for accepted moves and for near-tie moves (|Δ| < tieEps),
// which keeps cur and the best-so-far comparison bit-identical to
// recomputing Energy every move: the incident and full deltas agree
// mathematically but differ by summation-order roundoff (~1e-11 here),
// and on energy-neutral moves that roundoff decides whether the
// Metropolis draw is consumed at all. A net-less move's full sum is cur
// itself, so it is not taken.
func (c *chain) run(moves int, t float64, r *rng.Source, best *Placement, bestE *float64) (accepted, rejected, infeasible int) {
	for range moves {
		delta, netless, ok := c.propose(r)
		if !ok {
			infeasible++
			continue
		}
		next, haveNext := 0.0, false
		if netless {
			next, haveNext = c.cur, true
			delta = next - c.cur
		} else if delta > -tieEps && delta < tieEps {
			next, haveNext = c.energy(), true
			delta = next - c.cur
		}
		if metropolis(delta, t, r) {
			if !haveNext {
				next = c.energy()
			}
			c.commit()
			c.cur = next
			if c.cur < *bestE {
				*bestE = c.cur
				best.CopyFrom(c.p)
			}
			accepted++
		} else {
			c.undo()
			rejected++
		}
	}
	return accepted, rejected, infeasible
}

// metropolis is the accept rule of Algorithm 2: a downhill move is
// taken without a draw; otherwise one uniform u in [0, 1) is drawn and
// the move is taken when u < exp(−Δ/T). At Δ = 0 that bound is
// exp(−0) = 1 exactly, which every u is below, so the draw is made but
// math.Exp is not called.
func metropolis(delta, t float64, r *rng.Source) bool {
	if delta < 0 {
		return true
	}
	u := r.Float64()
	return delta == 0 || u < math.Exp(-delta/t)
}
