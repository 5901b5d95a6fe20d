package route

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/place"
	"repro/internal/schedule"
	"repro/internal/unit"
)

// finishMetricsReference is the map-based accounting finishMetrics
// replaced: a map for the union cells and a sort.Slice per cell of every
// cell's slots. It stays as the oracle the rewrite is checked against.
func finishMetricsReference(res *Result, g *Grid) {
	cells := map[Cell]bool{}
	for _, rt := range res.Routes {
		for _, c := range rt.Path {
			cells[c] = true
		}
	}
	res.UnionCells = len(cells)

	var wash unit.Time
	for i := range g.slots {
		ss := append([]slot(nil), g.slots[i]...)
		sort.Slice(ss, func(a, b int) bool { return ss[a].iv.Start < ss[b].iv.Start })
		for k := 0; k < len(ss); k++ {
			if k+1 < len(ss) && ss[k+1].fluid == ss[k].fluid {
				continue
			}
			wash += ss[k].wash
		}
	}
	res.ChannelWash = wash
}

// replayMetrics commits res's routes onto a fresh grid of pl, as
// RecomputeMetrics does, and returns the metrics finishMetrics (called
// twice, to show it leaves the grid as it found it) and the reference
// compute from that grid.
func replayMetrics(t *testing.T, res *Result, sched *schedule.Result, pl *place.Placement) (got, again, want Result) {
	t.Helper()
	g, err := NewGrid(sched.Comps, pl, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	defer g.release()
	for _, rt := range res.Routes {
		tk := rt.Task
		g.commit(tk.ID, rt.Path, tk.Window, tk.Hold, tk.Fluid.Name, tk.Wash)
	}
	got, again, want = Result{Routes: res.Routes}, Result{Routes: res.Routes}, Result{Routes: res.Routes}
	finishMetrics(&got, g)
	finishMetrics(&again, g)
	finishMetricsReference(&want, g)
	return got, again, want
}

// TestFinishMetricsMatchesReference: on the 7 Table I benchmarks at
// placement seeds 1–3, routed by the proposed router (DCSA) and by the
// baseline (BA), the stamp-counted union and the per-cell pdqsort wash
// equal the map-based reference on the same grid, and equal what the
// router itself reported.
func TestFinishMetricsMatchesReference(t *testing.T) {
	for _, bm := range benchdata.All() {
		for _, baseline := range []bool{false, true} {
			for seed := uint64(1); seed <= 3; seed++ {
				name, baseline, seed := bm.Name, baseline, seed
				algo := "DCSA"
				if baseline {
					algo = "BA"
				}
				t.Run(fmt.Sprintf("%s/%s/seed%d", name, algo, seed), func(t *testing.T) {
					t.Parallel()
					sched, pl := seededPipeline(t, name, baseline, seed)
					res, used, err := Solve(sched, sched.Comps, pl, DefaultParams(), baseline)
					if err != nil {
						t.Fatal(err)
					}
					got, again, want := replayMetrics(t, res, sched, used)
					if got.UnionCells != want.UnionCells || got.ChannelWash != want.ChannelWash {
						t.Fatalf("union %d, wash %v; reference %d, %v",
							got.UnionCells, got.ChannelWash, want.UnionCells, want.ChannelWash)
					}
					if again.UnionCells != got.UnionCells || again.ChannelWash != got.ChannelWash {
						t.Fatalf("a second finishMetrics on the grid gave %d, %v after %d, %v",
							again.UnionCells, again.ChannelWash, got.UnionCells, got.ChannelWash)
					}
					if !baseline && (res.UnionCells != want.UnionCells || res.ChannelWash != want.ChannelWash) {
						t.Fatalf("router reported union %d, wash %v; reference %d, %v",
							res.UnionCells, res.ChannelWash, want.UnionCells, want.ChannelWash)
					}
				})
			}
		}
	}
}

// TestFinishMetricsOffPlaneCell: a path cell off the plane — which only
// an unvalidated document's paths hold — is counted once by value, as
// the reference counts it, even where its packed index aliases a cell
// on the plane.
func TestFinishMetricsOffPlaneCell(t *testing.T) {
	sched, pl := seededPipeline(t, "PCR", false, 1)
	res, used, err := Solve(sched, sched.Comps, pl, DefaultParams(), false)
	if err != nil {
		t.Fatal(err)
	}
	// (W, y) packs to the index of (0, y+1).
	tampered := *res
	tampered.Routes = append([]RoutedTask(nil), res.Routes...)
	rt := tampered.Routes[0]
	rt.Path = append(append([]Cell(nil), rt.Path...), Cell{used.W, 0}, Cell{used.W, 0}, Cell{0, 1})
	tampered.Routes[0] = rt
	got, _, want := replayMetrics(t, &tampered, sched, used)
	if got.UnionCells != want.UnionCells || got.ChannelWash != want.ChannelWash {
		t.Fatalf("union %d, wash %v; reference %d, %v", got.UnionCells, got.ChannelWash, want.UnionCells, want.ChannelWash)
	}
}

// seededPipeline schedules a Table I benchmark and places it as
// core.Synthesize does at the given seed (Imax 30): annealed for DCSA,
// constructed for BA.
func seededPipeline(t *testing.T, name string, baseline bool, seed uint64) (*schedule.Result, *place.Placement) {
	t.Helper()
	bm, err := benchdata.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	comps := bm.Alloc.Instantiate()
	var sr *schedule.Result
	if baseline {
		sr, err = schedule.ScheduleBaseline(bm.Graph, comps, schedule.DefaultOptions())
	} else {
		sr, err = schedule.Schedule(bm.Graph, comps, schedule.DefaultOptions())
	}
	if err != nil {
		t.Fatal(err)
	}
	pp := place.DefaultParams()
	pp.Imax = 30
	pp.Seed = seed
	nets := place.BuildNets(sr, pp.Beta, pp.Gamma)
	var pl *place.Placement
	if baseline {
		pl, err = place.Construct(comps, nets, pp)
	} else {
		pl, err = place.Anneal(comps, nets, pp)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sr, pl
}

// TestRecomputeMetricsOffPlanePathCell edits the first path cell of a
// routed PCR to a cell above the plane, one far below it and one just
// right of it, whose packed index aliases cell (0, 4). Replaying the
// routes must not panic, must give no slot to the off-plane cell, so
// none lands on the aliased cell and the grid holds one slot per
// in-plane path cell, and must count the off-plane cell in the union.
func TestRecomputeMetricsOffPlanePathCell(t *testing.T) {
	sched, pl := seededPipeline(t, "PCR", false, 1)
	res, used, err := Solve(sched, sched.Comps, pl, DefaultParams(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, edit := range []Cell{{0, -1}, {0, 99999}, {used.W, 3}} {
		t.Run(fmt.Sprintf("%d,%d", edit.X, edit.Y), func(t *testing.T) {
			tampered := *res
			tampered.Routes = append([]RoutedTask(nil), res.Routes...)
			rt := tampered.Routes[0]
			rt.Path = append([]Cell(nil), rt.Path...)
			rt.Path[0] = edit
			tampered.Routes[0] = rt

			g, err := NewGrid(sched.Comps, used, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			defer g.release()
			inPlane := 0
			for _, r := range tampered.Routes {
				tk := r.Task
				g.commit(tk.ID, r.Path, tk.Window, tk.Hold, tk.Fluid.Name, tk.Wash)
				for _, c := range r.Path {
					if g.In(c) {
						inPlane++
					}
				}
			}
			slots := 0
			for _, ss := range g.slots {
				slots += len(ss)
			}
			if slots != inPlane {
				t.Errorf("%d slots on the grid, %d in-plane path cells", slots, inPlane)
			}
			for _, s := range g.slots[g.idx(0, 4)] {
				if s.task == rt.Task.ID {
					t.Errorf("task %d has a slot on (0,4), the alias of its off-plane cell", s.task)
				}
			}

			RecomputeMetrics(&tampered, sched, sched.Comps, used, DefaultParams())
			union := map[Cell]bool{}
			for _, r := range tampered.Routes {
				for _, c := range r.Path {
					union[c] = true
				}
			}
			if tampered.UnionCells != len(union) {
				t.Errorf("union %d cells, want %d (the off-plane cell counted once)", tampered.UnionCells, len(union))
			}
		})
	}
}
