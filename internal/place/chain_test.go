package place

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/chip"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/schedule"
)

// genAlloc is the allocation of the service's generated assays (Table I's
// Synthetic1 allocation). Its nine components outnumber what a small
// schedule connects, so some of them carry no net.
var genAlloc = chip.Allocation{3, 3, 2, 1}

// generated schedules a generated assay of ops operations on genAlloc.
func generated(t testing.TB, ops int, seed uint64) (*schedule.Result, []chip.Component) {
	t.Helper()
	g := benchdata.GenerateSynthetic(fmt.Sprintf("gen%d", ops), ops, genAlloc, seed)
	comps := genAlloc.Instantiate()
	r, err := schedule.Schedule(g, comps, schedule.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return r, comps
}

// traceSteps runs fn under a collecting tracer and returns the anneal
// steps it emitted, in emission order.
func traceSteps(fn func(ctx context.Context) error) ([]obs.AnnealStep, error) {
	col := &obs.Collect{}
	err := fn(obs.Into(context.Background(), obs.New(col)))
	var steps []obs.AnnealStep
	for _, e := range col.Snapshot() {
		if e.Name != "sa.step" {
			continue
		}
		arg := func(k string) float64 { v, _ := e.Arg(k); return v }
		steps = append(steps, obs.AnnealStep{
			Seed: uint64(e.TID), Temp: arg("temp"), Cur: arg("energy"), Best: arg("best"),
			Accepted: int(arg("accepted")), Rejected: int(arg("rejected")), Infeasible: int(arg("infeasible")),
		})
	}
	return steps, err
}

// sameRects fails the test unless a and b hold the same rectangles.
func sameRects(t *testing.T, what string, a, b *Placement) {
	t.Helper()
	if a.W != b.W || a.H != b.H || len(a.Rects) != len(b.Rects) {
		t.Fatalf("%s: plane %dx%d/%d rects, reference %dx%d/%d", what, a.W, a.H, len(a.Rects), b.W, b.H, len(b.Rects))
	}
	for i := range a.Rects {
		if a.Rects[i] != b.Rects[i] {
			t.Fatalf("%s: component %d at %+v, reference %+v", what, i, a.Rects[i], b.Rects[i])
		}
	}
}

// sameSteps fails the test unless every anneal step matches the
// reference's, energies bit for bit.
func sameSteps(t *testing.T, got, want []obs.AnnealStep) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d anneal steps, reference %d", len(got), len(want))
	}
	for k := range got {
		g, w := got[k], want[k]
		if g.Seed != w.Seed || g.Accepted != w.Accepted || g.Rejected != w.Rejected || g.Infeasible != w.Infeasible ||
			math.Float64bits(g.Temp) != math.Float64bits(w.Temp) ||
			math.Float64bits(g.Cur) != math.Float64bits(w.Cur) ||
			math.Float64bits(g.Best) != math.Float64bits(w.Best) {
			t.Fatalf("step %d: %+v, reference %+v", k, g, w)
		}
	}
}

// annealCase is one input of TestAnnealMatchesReference.
type annealCase struct {
	name  string
	comps []chip.Component
	nets  []Net
	pr    Params
}

// netlessCount returns how many components no net touches.
func netlessCount(n int, nets []Net) int {
	touched := make([]bool, n)
	for _, nt := range nets {
		touched[nt.A], touched[nt.B] = true, true
	}
	k := 0
	for _, t := range touched {
		if !t {
			k++
		}
	}
	return k
}

// TestAnnealMatchesReference is the chain's contract: at the published
// schedule (Imax 150), the annealer ends its steps in the reference's
// best placement, emits the reference's telemetry at every step (move
// counts, and energies bit for bit) and quenches to the reference
// quench's placement, over the 7 Table I benchmarks × placement seeds
// 1–5 × spacing 1–3 and generated 4-, 8- and 12-op assays on (3,3,2,1)
// × seeds 1–5, whose spare components carry no net. Tempering at 2 and 4
// replicas, on a worker per replica, is checked on three of them. Under
// the race detector the plain cases keep seed 1 and spacing 2; the
// tempered ones all run.
func TestAnnealMatchesReference(t *testing.T) {
	var cases []annealCase
	for _, bm := range benchdata.All() {
		sched, comps := scheduled(t, bm.Name)
		nets := BuildNets(sched, 0.6, 0.4)
		for seed := uint64(1); seed <= 5; seed++ {
			for spacing := 1; spacing <= 3; spacing++ {
				if raceEnabled && (seed != 1 || spacing != 2) {
					continue
				}
				pr := DefaultParams()
				pr.Seed, pr.Spacing = seed, spacing
				cases = append(cases, annealCase{fmt.Sprintf("%s/seed%d/s%d", bm.Name, seed, spacing), comps, nets, pr})
			}
		}
	}
	netless := 0
	for _, ops := range []int{4, 8, 12} {
		sched, comps := generated(t, ops, uint64(100+ops))
		nets := BuildNets(sched, 0.6, 0.4)
		netless += netlessCount(len(comps), nets)
		for seed := uint64(1); seed <= 5; seed++ {
			if raceEnabled && seed != 1 {
				continue
			}
			pr := DefaultParams()
			pr.Seed = seed
			cases = append(cases, annealCase{fmt.Sprintf("gen%d/seed%d", ops, seed), comps, nets, pr})
		}
	}
	if netless == 0 {
		t.Fatal("no generated assay leaves a component without nets")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantBest, wantSteps, err := referenceAnneal(tc.comps, tc.nets, tc.pr)
			if err != nil {
				t.Fatal(err)
			}
			var best *Placement
			steps, err := traceSteps(func(ctx context.Context) (err error) {
				best, _, err = annealSteps(ctx, tc.comps, tc.nets, tc.pr)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			sameSteps(t, steps, wantSteps)
			sameRects(t, "pre-quench best", best, wantBest)
			final, err := Anneal(tc.comps, tc.nets, tc.pr)
			if err != nil {
				t.Fatal(err)
			}
			referenceQuench(wantBest, tc.nets, tc.pr.Spacing)
			sameRects(t, "final", final, wantBest)
		})
	}
	tempered := map[string]bool{"CPA/seed1/s2": true, "Synthetic1/seed1/s2": true, "gen8/seed1": true}
	for _, tc := range cases {
		if !tempered[tc.name] {
			continue
		}
		for _, replicas := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/tempered%d", tc.name, replicas), func(t *testing.T) {
				wantBest, wantSteps, err := referenceTempered(tc.comps, tc.nets, tc.pr, replicas)
				if err != nil {
					t.Fatal(err)
				}
				var best *Placement
				steps, err := traceSteps(func(ctx context.Context) (err error) {
					best, _, err = temperSteps(ctx, tc.comps, tc.nets, tc.pr, replicas, replicas)
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				sameSteps(t, steps, wantSteps)
				sameRects(t, "pre-quench best", best, wantBest)
				final, err := AnnealTempered(tc.comps, tc.nets, tc.pr, replicas)
				if err != nil {
					t.Fatal(err)
				}
				referenceQuench(wantBest, tc.nets, tc.pr.Spacing)
				sameRects(t, "final", final, wantBest)
			})
		}
	}
}

// TestChainDistanceMatchesDist checks the integer distance against the
// float one: over random rectangle pairs on planes up to 4096 cells a
// side, (|2ΔX+ΔW| + |2ΔY+ΔH|)/2 equals Placement.Dist bit for bit, and
// so the chain's full, incident and pair sums equal Energy, CompEnergy
// and PairEnergy bit for bit. It also pins the fact the accept rule's
// zero-delta shortcut rests on: exp(−0) is exactly 1.
func TestChainDistanceMatchesDist(t *testing.T) {
	if math.Exp(math.Copysign(0, -1)) != 1 || math.Exp(0) != 1 {
		t.Fatalf("exp(−0) = %v, exp(0) = %v, want exactly 1", math.Exp(math.Copysign(0, -1)), math.Exp(0))
	}
	r := rng.New(77)
	for trial := 0; trial < 20000; trial++ {
		side := 1 + r.Intn(4096)
		rect := func() Rect {
			w, h := 1+r.Intn(side), 1+r.Intn(side)
			return Rect{X: r.Intn(side - w + 1), Y: r.Intn(side - h + 1), W: w, H: h}
		}
		p := &Placement{W: side, H: side, Rects: []Rect{rect(), rect(), rect()}}
		nets := []Net{
			{A: 0, B: 1, CP: 0.1 + 10*r.Float64()},
			{A: 2, B: 0, CP: 0.1 + 10*r.Float64()},
			{A: 1, B: 2, CP: 0.1 + 10*r.Float64()},
		}
		ix := BuildNetIndex(3, nets)
		var c chain
		c.init(p, ix, 0)
		ra, rb := p.Rects[0], p.Rects[1]
		d2 := abs(2*(ra.X-rb.X)+ra.W-rb.W) + abs(2*(ra.Y-rb.Y)+ra.H-rb.H)
		if got, want := float64(d2)*0.5, p.Dist(0, 1); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%+v %+v: integer distance %v, Dist %v", ra, rb, got, want)
		}
		for _, v := range []struct {
			what      string
			got, want float64
		}{
			{"energy", c.energy(), Energy(p, nets)},
			{"incident", c.incident(1), ix.CompEnergy(p, 1)},
			{"pair", c.pair(2, 0), ix.PairEnergy(p, 2, 0)},
		} {
			if math.Float64bits(v.got) != math.Float64bits(v.want) {
				t.Fatalf("%+v: chain %s %v, float %v", p.Rects, v.what, v.got, v.want)
			}
		}
	}
}

// TestMetropolisMatchesReference checks the accept rule against the
// seed's expression, delta < 0 || u < exp(−delta/t), on twin RNG streams:
// the same verdict and the same draws, at zero, roundoff-sized, near-tie
// and genuine deltas, including temperatures low enough that a delta
// below tieEps is still rejected now and then.
func TestMetropolisMatchesReference(t *testing.T) {
	deltas := []float64{math.Copysign(0, -1), 0, 1e-12, 3e-7, tieEps / 2, tieEps, 0.5, 7, 1e4, -1e-12, -3, math.NaN(), math.Inf(1)}
	temps := []float64{1e-9, 1e-7, 1, 37, 1e4}
	a, b := rng.New(5), rng.New(5)
	rejections := 0
	for round := 0; round < 200; round++ {
		for _, d := range deltas {
			for _, temp := range temps {
				got := metropolis(d, temp, a)
				want := d < 0 || b.Float64() < math.Exp(-d/temp)
				if got != want {
					t.Fatalf("delta %v, T %v: metropolis %v, seed rule %v", d, temp, got, want)
				}
				if a.Uint64() != b.Uint64() {
					t.Fatalf("delta %v, T %v: the streams diverged", d, temp)
				}
				if !want && d > 0 && d < tieEps {
					rejections++
				}
			}
		}
	}
	if rejections == 0 {
		t.Fatal("no near-tie delta was rejected: the cases do not reach exp's branch")
	}
}

// checkBounds fails the test unless the chain's bound arrays and centres
// describe its committed rectangles.
func checkBounds(t *testing.T, c *chain, when string) {
	t.Helper()
	for k, r := range c.p.Rects {
		x0, x1, y0, y1 := int32(r.X), int32(r.X+r.W), int32(r.Y), int32(r.Y+r.H)
		if r.W == 0 {
			x0, x1, y0, y1 = emptyLo, emptyHi, emptyLo, emptyHi
		}
		if c.x0[k] != x0 || c.x1[k] != x1 || c.y0[k] != y0 || c.y1[k] != y1 {
			t.Fatalf("%s: component %d bounds [%d,%d)×[%d,%d), rect %+v",
				when, k, c.x0[k], c.x1[k], c.y0[k], c.y1[k], r)
		}
		if c.cx[k] != int32(2*r.X+r.W) || c.cy[k] != int32(2*r.Y+r.H) {
			t.Fatalf("%s: component %d centre (%d,%d), rect %+v", when, k, c.cx[k], c.cy[k], r)
		}
	}
}

// BenchmarkAnnealMix anneals the shapes of the service's cold requests at
// the published Imax 150, quench included: generated 4-, 8- and 12-op
// assays on (3,3,2,1), whose spare components carry no net, and
// Synthetic4, the largest Table I benchmark.
func BenchmarkAnnealMix(b *testing.B) {
	type input struct {
		name  string
		sched *schedule.Result
		comps []chip.Component
	}
	var inputs []input
	for _, ops := range []int{4, 8, 12} {
		sched, comps := generated(b, ops, uint64(100+ops))
		inputs = append(inputs, input{fmt.Sprintf("gen%d", ops), sched, comps})
	}
	sched, comps := scheduled(b, "Synthetic4")
	inputs = append(inputs, input{"Synthetic4", sched, comps})
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			pr := DefaultParams()
			nets := BuildNets(in.sched, pr.Beta, pr.Gamma)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pr.Seed = uint64(1 + i%5)
				if _, err := Anneal(in.comps, nets, pr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
