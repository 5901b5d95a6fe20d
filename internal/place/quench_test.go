package place

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/rng"
)

// quenchNetSets are the net families the quench is checked on: random
// real priorities in [-4.9, 5.1) (library callers may pass negative β or
// γ, so the bound must use Σ|cp|, not Σcp); small integer priorities, whose
// energies tie exactly and so exercise the full-sum tie-break; BuildNets
// on the benchmark's real schedule; and random nets among the first half
// of the components only, so the rest carry none and take the net-less
// early return.
var quenchNetSets = []string{"signed", "integer", "schedule", "sparse"}

// quenchCase builds one quench input: a random legal placement of the
// named benchmark's components at the given spacing, and a net set.
func quenchCase(t testing.TB, bench string, spacing int, set string, seed uint64) (*Placement, []Net) {
	t.Helper()
	sched, comps := scheduled(t, bench)
	r := rng.New(seed)
	var nets []Net
	switch set {
	case "signed":
		nets = randomNets(len(comps), 3*len(comps), r)
		for k := range nets {
			nets[k].CP -= 5
		}
	case "integer":
		nets = randomNets(len(comps), 3*len(comps), r)
		for k := range nets {
			nets[k].CP = float64(1 + r.Intn(3))
		}
	case "schedule":
		nets = BuildNets(sched, 0.6, 0.4)
	case "sparse":
		half := max(2, len(comps)/2)
		nets = randomNets(half, 3*half, r)
	default:
		t.Fatalf("unknown net set %q", set)
	}
	w, h := AutoPlane(comps, spacing)
	p, err := randomPlacement(comps, w, h, spacing, r)
	if err != nil {
		t.Fatal(err)
	}
	return p, nets
}

// TestQuenchMatchesReferenceQuench checks that the pruned quench ends in
// exactly the rectangles of the full-Energy reference, over the seven
// benchmarks × spacing 1, 2, 3 × the four net sets. The reference is
// slow, about 20× more so under the race detector, so a -race run keeps
// the 21 cases of a Latin square over the first three net sets — every
// benchmark meets every spacing and every net set once, and every
// spacing meets every net set — and 7 cases of the sparse set, one per
// benchmark; a plain run covers all 84.
func TestQuenchMatchesReferenceQuench(t *testing.T) {
	for bi, bm := range benchdata.All() {
		for spacing := 1; spacing <= 3; spacing++ {
			for si, set := range quenchNetSets {
				if raceEnabled && (bi+si+4-spacing)%3 != 0 {
					continue
				}
				name := fmt.Sprintf("%s/s%d/%s", bm.Name, spacing, set)
				t.Run(name, func(t *testing.T) {
					p, nets := quenchCase(t, bm.Name, spacing, set, uint64(13+bi*9+spacing*3+si))
					ix := BuildNetIndex(len(p.Rects), nets)
					q := p.Clone()
					quench(p, nets, ix, spacing)
					referenceQuench(q, nets, spacing)
					for i := range p.Rects {
						if p.Rects[i] != q.Rects[i] {
							t.Fatalf("component %d: quench %+v, reference %+v", i, p.Rects[i], q.Rects[i])
						}
					}
				})
			}
		}
	}
}

// TestQuenchMaskAndBound checks the two facts the quench's pruning rests
// on, at every top-left position of every component in both rotations:
// the mask is non-zero exactly where overlapsAny is true, and fl(f+g) is
// within half the margin of CompEnergyAt (the other half covers the
// subtraction from the incumbent).
func TestQuenchMaskAndBound(t *testing.T) {
	for _, tc := range []struct {
		bench   string
		spacing int
	}{{"PCR", 1}, {"CPA", 2}, {"Synthetic2", 3}, {"Synthetic4", 2}} {
		for _, set := range quenchNetSets {
			p, nets := quenchCase(t, tc.bench, tc.spacing, set, 31)
			ix := BuildNetIndex(len(p.Rects), nets)
			s := newQuenchScratch(p, ix, tc.spacing)
			worst := 0.0
			for i, old := range p.Rects {
				k, sumAbs := s.neighbours(p, ix, i)
				margin := quenchMargin(k, sumAbs, p.W, p.H)
				for rot := 0; rot < 2; rot++ {
					cand := old
					if rot == 1 {
						cand.W, cand.H = cand.H, cand.W
					}
					nx, ny := p.W-2*tc.spacing-cand.W+1, p.H-2*tc.spacing-cand.H+1
					s.tabulate(k, cand.W, cand.H, tc.spacing, nx, ny)
					s.block(p, i, cand.W, cand.H, tc.spacing, nx, ny)
					for yi := 0; yi < ny; yi++ {
						for xi := 0; xi < nx; xi++ {
							cand.X, cand.Y = tc.spacing+xi, tc.spacing+yi
							masked := s.blocked[yi*(nx+1)+xi] != 0
							if over := overlapsAny(p, i, cand, tc.spacing); masked != over {
								t.Fatalf("%s/%s comp %d at %+v: mask %v, overlapsAny %v",
									tc.bench, set, i, cand, masked, over)
							}
							gap := math.Abs((s.f[xi] + s.g[yi]) - ix.CompEnergyAt(p, i, cand))
							if gap > margin/2 {
								t.Fatalf("%s/%s comp %d at %+v: |f+g − CompEnergyAt| = %g > margin/2 = %g",
									tc.bench, set, i, cand, gap, margin/2)
							}
							if margin > 0 {
								worst = max(worst, gap/margin)
							}
						}
					}
				}
			}
			t.Logf("%s/%s: worst gap %.3g of the margin", tc.bench, set, worst)
		}
	}
}

// TestQuenchMarginOffWhenSumsCanOverflow pins the guard on the bound's
// premise: priorities that are NaN, infinite or large enough for a
// partial sum to overflow switch the prune off.
func TestQuenchMarginOffWhenSumsCanOverflow(t *testing.T) {
	for _, sumAbs := range []float64{math.NaN(), math.Inf(1), math.MaxFloat64 / 100} {
		if m := quenchMargin(4, sumAbs, 60, 60); !math.IsInf(m, 1) {
			t.Errorf("quenchMargin(Σ|cp| = %g) = %g, want +Inf", sumAbs, m)
		}
	}
	if m := quenchMargin(4, 100, 60, 60); math.IsInf(m, 0) || m <= 0 {
		t.Errorf("quenchMargin(Σ|cp| = 100) = %g, want a finite positive margin", m)
	}
}

// TestQuenchAllocatesOnlyScratch pins the allocation budget of a quench
// call: its scratch buffers, whatever the number of passes, visits and
// candidates.
func TestQuenchAllocatesOnlyScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	for _, bench := range []string{"PCR", "Synthetic4"} {
		start, nets := quenchCase(t, bench, 2, "schedule", 5)
		ix := BuildNetIndex(len(start.Rects), nets)
		p := start.Clone()
		allocs := testing.AllocsPerRun(5, func() {
			p.CopyFrom(start)
			quench(p, nets, ix, 2)
		})
		if allocs > 7 {
			t.Errorf("%s: quench made %v allocations, want at most 7 (its scratch)", bench, allocs)
		}
	}
}

// BenchmarkQuench measures the final greedy descent alone on a fixed
// Synthetic4 placement, as the annealer hands it over, restored before
// every iteration.
func BenchmarkQuench(b *testing.B) {
	sched, comps := scheduled(b, "Synthetic4")
	pr := DefaultParams()
	pr.Imax = 60
	nets := BuildNets(sched, pr.Beta, pr.Gamma)
	start, ix, err := annealSteps(context.Background(), comps, nets, pr)
	if err != nil {
		b.Fatal(err)
	}
	p := start.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.CopyFrom(start)
		quench(p, nets, ix, pr.Spacing)
	}
}

// referenceQuench is the seed implementation of quench: full Energy
// recomputation per candidate. Kept in the tests as the executable
// specification of the incremental, pruned version.
func referenceQuench(p *Placement, nets []Net, spacing int) {
	for improved := true; improved; {
		improved = false
		for i := range p.Rects {
			old := p.Rects[i]
			bestRect, bestE := old, Energy(p, nets)
			for rot := 0; rot < 2; rot++ {
				cand := old
				if rot == 1 {
					cand.W, cand.H = cand.H, cand.W
				}
				for yy := spacing; yy+cand.H <= p.H-spacing; yy++ {
					for xx := spacing; xx+cand.W <= p.W-spacing; xx++ {
						cand.X, cand.Y = xx, yy
						if !fitsAt(p, i, cand, spacing) {
							continue
						}
						p.Rects[i] = cand
						if e := Energy(p, nets); e < bestE {
							bestE = e
							bestRect = cand
						}
						p.Rects[i] = old
					}
				}
			}
			if bestRect != old {
				p.Rects[i] = bestRect
				improved = true
			}
		}
	}
}
