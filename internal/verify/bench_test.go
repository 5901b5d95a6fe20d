package verify

import (
	"context"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/schedule"
)

var reportSink *Report

// BenchmarkAuditRepair is the audit a session runs on a reroute
// candidate: Synthetic4 at Imax 60, cut at makespan/2, one dead cell on
// a suffix path, the schedule and placement frozen and the suffix
// re-routed around the cell — the full solution audit plus the repair
// contract.
func BenchmarkAuditRepair(b *testing.B) {
	bm := benchdata.Synthetic(4)
	comps := bm.Alloc.Instantiate()
	sched, err := schedule.Schedule(bm.Graph, comps, schedule.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	pp := place.DefaultParams()
	pp.Imax = 60
	pl, err := place.Anneal(comps, place.BuildNets(sched, pp.Beta, pp.Gamma), pp)
	if err != nil {
		b.Fatal(err)
	}
	pr := route.DefaultParams()
	prev, pl, err := route.Solve(sched, comps, pl, pr, false)
	if err != nil {
		b.Fatal(err)
	}
	at := sched.Makespan / 2
	executed := schedule.Executed(sched, at)
	frozen := make(map[int]bool)
	for _, tr := range sched.Transports {
		frozen[tr.ID] = executed[tr.Consumer]
	}
	spec := route.RepairSpec{Frozen: frozen, PrevPaths: make(map[int][]route.Cell)}
	for _, rt := range prev.Routes {
		spec.PrevPaths[rt.Task.ID] = rt.Path
		if spec.Defects == nil && !frozen[rt.Task.ID] && len(rt.Path) >= 3 {
			spec.Defects = []route.Cell{rt.Path[len(rt.Path)/2]}
		}
	}
	pr.RipUpRounds = 3
	cand, err := route.Repair(context.Background(), sched, comps, pl, pr, spec)
	if err != nil {
		b.Fatal(err)
	}
	in := Input{Assay: bm.Graph, Comps: comps, Schedule: sched, Placement: pl, Routing: cand}
	rs := RepairSpec{At: at, Defects: spec.Defects, PrevSchedule: sched, PrevRouting: prev,
		PlacementFrozen: true, PrevPlacement: pl}
	if rep := AuditRepair(in, rs); !rep.OK() {
		b.Fatalf("the reroute candidate fails its audit:\n%s", rep)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reportSink = AuditRepair(in, rs)
	}
}
