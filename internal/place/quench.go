package place

import (
	"context"
	"fmt"
	"math"
)

// quench exhaustively relocates single components (including rotation)
// while any move strictly reduces the Eq. 3 energy. Candidates are scored
// on the nets incident to the moved component only: the rest of the sum
// is unchanged by the move, so the ordering matches scoring full
// energies — except within tieEps of the incumbent, where summation-order
// roundoff on the full sum decides the "strictly less" test. Those
// near-ties fall back to comparing the full sums bit-for-bit, keeping the
// descent trajectory identical to the full-recompute implementation (see
// referenceQuench in the tests).
//
// Every candidate an exhaustive scan would score is still considered in
// the same order, but most are ruled out in O(1) with a proof rather than
// scored (see visit): a free-position mask replaces the per-candidate
// overlap test, and a separable lower bound on the incident energy skips
// candidates, and whole rows, that cannot come within tieEps of the
// incumbent.
func quench(p *Placement, nets []Net, ix *NetIndex, spacing int) {
	_ = quenchCtx(context.Background(), p, nets, ix, spacing)
}

// quenchCtx is quench with a cancellation poll between descent passes.
func quenchCtx(ctx context.Context, p *Placement, nets []Net, ix *NetIndex, spacing int) error {
	s := newQuenchScratch(p, ix, spacing)
	for improved := true; improved; {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("place: quench aborted: %w", err)
		}
		improved = false
		for i := range p.Rects {
			if s.visit(p, nets, ix, i, spacing) {
				improved = true
			}
		}
	}
	return nil
}

// quenchScratch holds the buffers of one quench call. It is allocated
// once per call and shared by nothing else, so concurrent anneals never
// contend and a descent allocates nothing per visit or per candidate.
type quenchScratch struct {
	// ox, oy and cp are the far-end centres and priorities of the visited
	// component's incident nets, in NetIndex order.
	ox, oy, cp []float64
	// f and g tabulate the separable incident energy of the visited
	// component: f[xi] = Σ |cx − ox|·cp over its nets, g[yi] likewise in
	// y, for top-left (spacing+xi, spacing+yi).
	f, g []float64
	// blocked counts, per top-left position, the other components whose
	// spacing-dilated footprint the candidate would overlap; row stride
	// nx+1 (see block).
	blocked []int32
}

// newQuenchScratch sizes the buffers for the largest incident-net count
// and the largest top-left range of any component in either rotation.
func newQuenchScratch(p *Placement, ix *NetIndex, spacing int) *quenchScratch {
	deg := 0
	for _, nb := range ix.byComp {
		deg = max(deg, len(nb))
	}
	nx, ny := 0, 0
	for _, r := range p.Rects {
		side := min(r.W, r.H)
		nx = max(nx, p.W-2*spacing-side+1)
		ny = max(ny, p.H-2*spacing-side+1)
	}
	return &quenchScratch{
		ox:      make([]float64, deg),
		oy:      make([]float64, deg),
		cp:      make([]float64, deg),
		f:       make([]float64, nx),
		g:       make([]float64, ny),
		blocked: make([]int32, (nx+1)*(ny+1)),
	}
}

// quenchMargin bounds the roundoff between fl(f(x)+g(y)) and the exact
// CompEnergyAt at the same position, with room to spare for the
// subtraction from the incumbent energy. Every |dx| and |dy| is an exact
// half-integer, so each of the k incident terms rounds once at its
// product and once in its sum: CompEnergyAt is within k·u·S of the real
// sum and fl(f+g) within (k+1)·u·S, where u = 2⁻⁵³ and S = Σ|cp|·(W+H)
// bounds Σ|term| (every centre lies in the W×H plane). The gap is thus
// at most (2k+2)·u·S; the margin is 4(k+2)·u·S, more than twice that.
// The subtraction fl(a − bestE) adds at most 2·u·S, so a candidate whose
// bound clears tieEps by the margin has fl(e − bestE) ≥ tieEps and would
// have been rejected by the scan.
//
// The argument needs every partial sum finite. When S could overflow, or
// a priority is NaN or infinite, the margin is +Inf, which no skip test
// passes: every free candidate is then scored.
func quenchMargin(k int, sumAbsCP float64, w, h int) float64 {
	span := sumAbsCP * float64(w+h)
	if !(span <= math.MaxFloat64/64) {
		return math.Inf(1)
	}
	return 4 * float64(k+2) * 0x1p-53 * span
}

// neighbours loads the incident nets of component i into s.ox/oy/cp and
// returns their count and Σ|cp|. The far end is read from p.Rects exactly
// as CompEnergyAt reads it (a self-net sees i's current rectangle).
func (s *quenchScratch) neighbours(p *Placement, ix *NetIndex, i int) (k int, sumAbs float64) {
	for t, nk := range ix.byComp[i] {
		n := &ix.nets[nk]
		o := n.A
		if int(o) == i {
			o = n.B
		}
		ro := p.Rects[o]
		s.ox[t], s.oy[t], s.cp[t] = ro.CenterX(), ro.CenterY(), n.CP
		sumAbs += math.Abs(n.CP)
	}
	return len(ix.byComp[i]), sumAbs
}

// tabulate fills f[0:nx] and g[0:ny] for a w×h footprint whose top-left
// ranges over [spacing, spacing+nx) × [spacing, spacing+ny), from the k
// neighbours loaded by neighbours. It returns min f.
func (s *quenchScratch) tabulate(k, w, h, spacing, nx, ny int) (minF float64) {
	ox, oy, cp := s.ox[:k], s.oy[:k], s.cp[:k]
	minF = math.Inf(1)
	for xi := 0; xi < nx; xi++ {
		cx := float64(spacing+xi) + float64(w)/2
		var e float64
		for t, c := range cp {
			e += math.Abs(cx-ox[t]) * c
		}
		s.f[xi] = e
		minF = min(minF, e)
	}
	for yi := 0; yi < ny; yi++ {
		cy := float64(spacing+yi) + float64(h)/2
		var e float64
		for t, c := range cp {
			e += math.Abs(cy-oy[t]) * c
		}
		s.g[yi] = e
	}
	return minF
}

// block fills s.blocked so that blocked[yi*(nx+1)+xi] is the number of
// components other than i that a w×h footprint at top-left
// (spacing+xi, spacing+yi) would overlap with margin spacing — non-zero
// exactly where overlapsAny is true. Component j forbids top-left x in
// [X_j − w − spacing + 1, X_j + W_j + spacing − 1] (the strict
// inequalities of expandedOverlaps), and likewise y; each such box goes
// into a 2-D difference array that one prefix-sum pass turns into
// counts, O(n + nx·ny) instead of O(n·nx·ny).
func (s *quenchScratch) block(p *Placement, i, w, h, spacing, nx, ny int) {
	stride := nx + 1
	b := s.blocked[:stride*(ny+1)]
	clear(b)
	for j, r := range p.Rects {
		if j == i || r.W == 0 {
			continue
		}
		x0 := max(r.X-w-2*spacing+1, 0)
		x1 := min(r.X+r.W-1, nx-1)
		y0 := max(r.Y-h-2*spacing+1, 0)
		y1 := min(r.Y+r.H-1, ny-1)
		if x0 > x1 || y0 > y1 {
			continue
		}
		b[y0*stride+x0]++
		b[y0*stride+x1+1]--
		b[(y1+1)*stride+x0]--
		b[(y1+1)*stride+x1+1]++
	}
	for yi := 0; yi < ny; yi++ {
		row := b[yi*stride : yi*stride+nx]
		var run int32
		if yi == 0 {
			for xi, d := range row {
				run += d
				row[xi] = run
			}
			continue
		}
		prev := b[(yi-1)*stride : (yi-1)*stride+nx]
		for xi, d := range row {
			run += d
			row[xi] = run + prev[xi]
		}
	}
}

// visit relocates component i to the best position of one exhaustive
// scan over both rotations and every in-plane top-left, and reports
// whether it moved. The scan order, the strict-improvement rule and the
// tieEps full-sum tie-break are those of scoring every free candidate
// with CompEnergyAt; a candidate is skipped without scoring only when
// that scan would provably have rejected it:
//
//   - blocked: the mask says it overlaps another component;
//   - bounded: fl(f(x)+g(y)) − bestE > tieEps + margin, so its exact
//     CompEnergyAt is at least tieEps above the incumbent (quenchMargin);
//   - the same test on g(y) + min f skips a whole row, since float
//     addition and subtraction are monotone and the incumbent cannot
//     change inside a row where every candidate fails.
//
// The incumbent's full Eq. 3 sum is cached across near ties: Energy is a
// pure function of the rectangles, so it equals what a fresh call would
// return.
//
// A component without nets returns at once. Moving it changes no term of
// Eq. 3, so every free candidate ties the incumbent: its incident energy
// is 0 and its full sum adds the same terms in the same order, and the
// strict-improvement rule never takes a tie.
func (s *quenchScratch) visit(p *Placement, nets []Net, ix *NetIndex, i, spacing int) bool {
	if len(ix.byComp[i]) == 0 {
		return false
	}
	old := p.Rects[i]
	k, sumAbs := s.neighbours(p, ix, i)
	thr := tieEps + quenchMargin(k, sumAbs, p.W, p.H) // no x > +Inf: no prune
	bestRect, bestE := old, ix.CompEnergy(p, i)
	bestFull, haveFull := 0.0, false
	for rot := 0; rot < 2; rot++ {
		cand := old
		if rot == 1 {
			cand.W, cand.H = cand.H, cand.W
		}
		nx, ny := p.W-2*spacing-cand.W+1, p.H-2*spacing-cand.H+1
		if nx <= 0 || ny <= 0 {
			continue
		}
		minF := s.tabulate(k, cand.W, cand.H, spacing, nx, ny)
		s.block(p, i, cand.W, cand.H, spacing, nx, ny)
		for yi, gy := range s.g[:ny] {
			if (gy+minF)-bestE > thr {
				continue
			}
			blocked := s.blocked[yi*(nx+1) : yi*(nx+1)+nx]
			for xi, fx := range s.f[:nx] {
				if (fx+gy)-bestE > thr || blocked[xi] != 0 {
					continue
				}
				cand.X, cand.Y = spacing+xi, spacing+yi
				e := ix.CompEnergyAt(p, i, cand)
				d := e - bestE
				if d >= tieEps {
					continue // certainly worse
				}
				if d > -tieEps {
					// Near tie: the full sums decide, bit for bit.
					if !haveFull {
						bestFull, haveFull = energyWith(p, nets, i, bestRect), true
					}
					ec := energyWith(p, nets, i, cand)
					if !(ec < bestFull) {
						continue
					}
					bestFull = ec
				} else {
					haveFull = false
				}
				bestE = e
				bestRect = cand
			}
		}
	}
	if bestRect == old {
		return false
	}
	p.Rects[i] = bestRect
	return true
}

// energyWith returns the full Eq. 3 energy with component i moved to r,
// leaving p as it found it.
func energyWith(p *Placement, nets []Net, i int, r Rect) float64 {
	save := p.Rects[i]
	p.Rects[i] = r
	e := Energy(p, nets)
	p.Rects[i] = save
	return e
}
