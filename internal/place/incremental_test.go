package place

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/chip"
	"repro/internal/rng"
)

// randomNets builds a random net list over n components with positive
// priorities, including duplicate pairs (several transports can share a
// net pair before BuildNets merges them, and the index must not care).
func randomNets(n int, count int, r *rng.Source) []Net {
	nets := make([]Net, 0, count)
	for k := 0; k < count; k++ {
		a := chip.CompID(r.Intn(n))
		b := chip.CompID(r.Intn(n - 1))
		if b >= a {
			b++
		}
		nets = append(nets, Net{A: a, B: b, CP: 0.1 + 10*r.Float64()})
	}
	return nets
}

// TestIncrementalDeltaMatchesFull is the incremental-energy invariant,
// driven through the chain: for 1k legal moves on random placements,
// each proposal matches the seed's transform on a twin RNG stream (the
// same draws, the same legality verdict, the same incident delta bit for
// bit), the delta equals Energy(after) − Energy(before) within 1e-9, and
// the chain's full sum equals Energy(after) bit for bit. A net-less move
// leaves Energy unchanged bit for bit. Half the moves are committed and
// half undone, and the bound arrays must describe the placement after
// each. The "sparse" nets join only the first half of the components.
func TestIncrementalDeltaMatchesFull(t *testing.T) {
	for _, name := range []string{"IVD", "CPA", "Synthetic2"} {
		for _, sparse := range []bool{false, true} {
			_, comps := scheduled(t, name)
			r := rng.New(42)
			n := len(comps)
			if sparse {
				n = max(2, n/2)
			}
			nets := randomNets(n, 3*n, r)
			ix := BuildNetIndex(len(comps), nets)
			w, h := AutoPlane(comps, 2)
			p, err := randomPlacement(comps, w, h, 2, r)
			if err != nil {
				t.Fatal(err)
			}
			ref := p.Clone()
			var c chain
			c.init(p, ix, 2)
			checked, netless := 0, 0
			for checked < 1000 {
				before := Energy(c.p, nets)
				twin := *r
				m, wantDelta, wantOK := referenceTransform(ref, 2, &twin, ix)
				delta, isNetless, ok := c.propose(r)
				if ok != wantOK || *r != twin {
					t.Fatalf("%s move %d: chain ok=%v, seed ok=%v (or the draws differ)", name, checked, ok, wantOK)
				}
				if !ok {
					continue
				}
				after := Energy(ref, nets)
				if isNetless {
					netless++
					if math.Float64bits(after) != math.Float64bits(before) || wantDelta != 0 {
						t.Fatalf("%s move %d: net-less move changed Energy %v -> %v", name, checked, before, after)
					}
				} else {
					if math.Float64bits(delta) != math.Float64bits(wantDelta) {
						t.Fatalf("%s move %d: chain delta %v, seed delta %v", name, checked, delta, wantDelta)
					}
					if math.Abs(delta-(after-before)) > 1e-9 {
						t.Fatalf("%s move %d: incremental delta %v, full delta %v", name, checked, delta, after-before)
					}
				}
				if e := c.energy(); math.Float64bits(e) != math.Float64bits(after) {
					t.Fatalf("%s move %d: chain energy %v, Energy %v", name, checked, e, after)
				}
				// Exercise both branches: keep half the moves, undo the rest.
				if checked%2 == 1 {
					m.undo(ref)
					c.undo()
				} else {
					c.commit()
				}
				checkBounds(t, &c, fmt.Sprintf("%s move %d", name, checked))
				for k := range ref.Rects {
					if c.p.Rects[k] != ref.Rects[k] {
						t.Fatalf("%s move %d: component %d at %+v, seed %+v", name, checked, k, c.p.Rects[k], ref.Rects[k])
					}
				}
				checked++
			}
			if sparse && netless == 0 {
				t.Fatalf("%s: no net-less move among 1000", name)
			}
		}
	}
}

// TestCompEnergyAtMatchesMutation checks that scoring a candidate
// rectangle without mutating the placement agrees with mutating it and
// evaluating the incident nets.
func TestCompEnergyAtMatchesMutation(t *testing.T) {
	_, comps := scheduled(t, "CPA")
	r := rng.New(7)
	nets := randomNets(len(comps), 4*len(comps), r)
	ix := BuildNetIndex(len(comps), nets)
	w, h := AutoPlane(comps, 2)
	p, err := randomPlacement(comps, w, h, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 500; k++ {
		i := r.Intn(len(comps))
		old := p.Rects[i]
		cand := old
		cand.X = r.Intn(max(1, w-cand.W))
		cand.Y = r.Intn(max(1, h-cand.H))
		direct := ix.CompEnergyAt(p, i, cand)
		p.Rects[i] = cand
		mutated := ix.CompEnergy(p, i)
		p.Rects[i] = old
		if math.Abs(direct-mutated) > 1e-12 {
			t.Fatalf("move %d: CompEnergyAt %v != mutate-and-score %v", k, direct, mutated)
		}
	}
}

// TestPairEnergyCountsSharedNetsOnce pins the swap-move invariant: nets
// joining the swapped pair must contribute exactly one term.
func TestPairEnergyCountsSharedNetsOnce(t *testing.T) {
	nets := []Net{
		{A: 0, B: 1, CP: 2},
		{A: 0, B: 2, CP: 1},
		{A: 1, B: 2, CP: 1},
		{A: 0, B: 1, CP: 3}, // duplicate pair, distinct net
	}
	ix := BuildNetIndex(3, nets)
	p := &Placement{W: 20, H: 20, Rects: []Rect{
		{X: 0, Y: 0, W: 2, H: 2},
		{X: 4, Y: 0, W: 2, H: 2},
		{X: 0, Y: 4, W: 2, H: 2},
	}}
	got := ix.PairEnergy(p, 0, 1)
	want := p.Dist(0, 1)*2 + p.Dist(0, 2)*1 + p.Dist(1, 2)*1 + p.Dist(0, 1)*3
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("PairEnergy = %v, want %v", got, want)
	}
	// Swapping the argument order must not change the result.
	if rev := ix.PairEnergy(p, 1, 0); math.Abs(rev-got) > 1e-12 {
		t.Fatalf("PairEnergy(1,0) = %v, PairEnergy(0,1) = %v", rev, got)
	}
}
