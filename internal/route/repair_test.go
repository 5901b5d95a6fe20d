package route

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/place"
	"repro/internal/schedule"
	"repro/internal/unit"
)

func TestRepairNoFaultReproducesRouting(t *testing.T) {
	sr, comps, pl := pipeline(t, "Synthetic3", false)
	pr := DefaultParams()
	res, err := Route(sr, comps, pl, pr)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	prev := make(map[int][]Cell, len(res.Routes))
	for _, rt := range res.Routes {
		prev[rt.Task.ID] = rt.Path
	}
	rep, err := Repair(context.Background(), sr, comps, pl, pr, RepairSpec{PrevPaths: prev})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	// With no defects and full path reuse, the repaired routing is the
	// original routing.
	if !reflect.DeepEqual(rep.Routes, res.Routes) {
		t.Error("no-fault repair drifted from the original routing")
	}
	if err := Validate(rep, sr, comps, pl, pr); err != nil {
		t.Fatalf("repaired routing invalid: %v", err)
	}
}

func TestRepairAvoidsDefectsAndFreezesHistory(t *testing.T) {
	sr, comps, pl := pipeline(t, "Synthetic3", false)
	pr := DefaultParams()
	pr.RipUpRounds = 3
	res, err := Route(sr, comps, pl, pr)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	prev := make(map[int][]Cell, len(res.Routes))
	for _, rt := range res.Routes {
		prev[rt.Task.ID] = rt.Path
	}

	// Cut mid-assay: transports already departed are frozen.
	at := sr.Makespan / 2
	frozen := map[int]bool{}
	for _, tr := range sr.Transports {
		if tr.Depart < at {
			frozen[tr.ID] = true
		}
	}
	// Kill a cell on the path of some non-frozen transport, so the repair
	// has real work.
	var defect Cell
	found := false
	for _, rt := range res.Routes {
		if frozen[rt.Task.ID] || len(rt.Path) < 3 {
			continue
		}
		defect = rt.Path[len(rt.Path)/2]
		found = true
		break
	}
	if !found {
		t.Skip("no suffix transport with an interior cell")
	}

	spec := RepairSpec{Defects: []Cell{defect}, Frozen: frozen, PrevPaths: prev}
	rep, err := Repair(context.Background(), sr, comps, pl, pr, spec)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if err := Validate(rep, sr, comps, pl, pr); err != nil {
		t.Fatalf("repaired routing invalid: %v", err)
	}
	if rep.DefectCells != 1 {
		t.Errorf("DefectCells = %d, want 1", rep.DefectCells)
	}
	for _, rt := range rep.Routes {
		if frozen[rt.Task.ID] {
			if !reflect.DeepEqual(rt.Path, prev[rt.Task.ID]) {
				t.Errorf("frozen task %d path drifted", rt.Task.ID)
			}
			continue
		}
		for _, c := range rt.Path {
			if c == defect {
				t.Errorf("re-planned task %d crosses the dead cell %v", rt.Task.ID, c)
			}
		}
	}

	// Determinism: same spec, same routing, byte for byte.
	again, err := Repair(context.Background(), sr, comps, pl, pr, spec)
	if err != nil {
		t.Fatalf("second Repair: %v", err)
	}
	if !reflect.DeepEqual(rep.Routes, again.Routes) {
		t.Error("repair is not deterministic")
	}
}

func TestRepairFrozenTaskNeedsPath(t *testing.T) {
	sr, comps, pl := pipeline(t, "PCR", false)
	pr := DefaultParams()
	if len(sr.Transports) == 0 {
		t.Skip("PCR scheduled without transports")
	}
	spec := RepairSpec{Frozen: map[int]bool{sr.Transports[0].ID: true}}
	if _, err := Repair(context.Background(), sr, comps, pl, pr, spec); err == nil {
		t.Fatal("Repair accepted a frozen task without a previous path")
	}
}

// TestRepairSuffixRescheduleRoundTrip drives the two layers together: cut
// the schedule, reschedule the suffix, and re-route with the frozen edges
// carried over by (producer, consumer) edge identity.
func TestRepairSuffixRescheduleRoundTrip(t *testing.T) {
	sr, comps, pl := pipeline(t, "Synthetic4", false)
	pr := DefaultParams()
	pr.RipUpRounds = 3
	res, err := Route(sr, comps, pl, pr)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	at := sr.Makespan / 3
	re, err := schedule.RescheduleSuffix(sr, at, nil)
	if err != nil {
		t.Fatalf("RescheduleSuffix: %v", err)
	}

	// Carry previous paths across the reschedule keyed by edge: transport
	// IDs are renumbered, edges are stable.
	type edge struct{ p, c int }
	prevByEdge := make(map[edge][]Cell)
	taskOf := make(map[int]schedule.Transport)
	for _, tr := range sr.Transports {
		taskOf[tr.ID] = tr
	}
	for _, rt := range res.Routes {
		tr := taskOf[rt.Task.ID]
		prevByEdge[edge{int(tr.Producer), int(tr.Consumer)}] = rt.Path
	}
	spec := RepairSpec{Frozen: map[int]bool{}, PrevPaths: map[int][]Cell{}}
	executed := schedule.Executed(re, at)
	for _, tr := range re.Transports {
		if p, ok := prevByEdge[edge{int(tr.Producer), int(tr.Consumer)}]; ok {
			spec.PrevPaths[tr.ID] = p
		}
		if executed[tr.Consumer] {
			spec.Frozen[tr.ID] = true
		}
	}
	rep, err := Repair(context.Background(), re, comps, pl, pr, spec)
	if err != nil {
		t.Fatalf("Repair after reschedule: %v", err)
	}
	if err := Validate(rep, re, comps, pl, pr); err != nil {
		t.Fatalf("repaired routing invalid against rescheduled suffix: %v", err)
	}
}

// TestRepairKeptFieldsMatchFresh: a chain of repairs handed one kept
// Fields returns exactly the routes and metrics of the same chain run
// with fresh fields per call, although re-annealed and dilated
// placements come and go mid-chain; on a repeated placement the kept fields are reused,
// and on any other they are replaced.
func TestRepairKeptFieldsMatchFresh(t *testing.T) {
	sr, comps, pl := pipeline(t, "Synthetic4", false)
	pr := DefaultParams()
	pr.RipUpRounds = 3
	last, err := Route(sr, comps, pl, pr)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	dil := place.Dilate(pl, 1.5)
	// A re-anneal on another seed, as the sa rung makes: the same plane
	// with moved footprints, so only the footprints tell the fields apart.
	pp := place.DefaultParams()
	pp.Imax = 15
	pp.Seed += 7919
	sa, err := place.Anneal(comps, place.BuildNets(sr, 0.6, 0.4), pp)
	if err != nil {
		t.Fatal(err)
	}
	if sa.W != pl.W || sa.H != pl.H || slices.Equal(sa.Rects, pl.Rects) {
		t.Fatal("the re-anneal must keep the plane and move a footprint")
	}
	chain := []struct {
		pl       *place.Placement
		num, den int64 // the cut on pl, as a fraction of the makespan
		reuse    bool  // the step must reuse the previous step's fields
	}{
		{pl, 1, 4, false},
		{pl, 1, 2, true},
		{sa, 0, 1, false},
		{pl, 9, 16, false},
		{dil, 0, 1, false},
		{place.Dilate(pl, 1.5), 0, 1, true}, // the same footprints anew
		{pl, 5, 8, false},
		{place.Dilate(pl, 2.25), 0, 1, false},
		{pl, 3, 4, false},
		{pl, 7, 8, true},
	}
	kept := &Fields{}
	prevOnPl := last // the latest routing on pl, whose paths a cut freezes
	var defects []Cell
	var fields [][]int32 // the kept fields after the previous step
	carried := 0         // fields a step found computed by an earlier one
	for i, st := range chain {
		at := sr.Makespan * unit.Time(st.num) / unit.Time(st.den)
		executed := schedule.Executed(sr, at)
		frozen := map[int]bool{}
		if st.pl == pl {
			for _, tr := range sr.Transports {
				if executed[tr.Consumer] {
					frozen[tr.ID] = true
				}
			}
		}
		for _, rt := range last.Routes {
			if !frozen[rt.Task.ID] && len(rt.Path) >= 3 {
				defects = append(defects, rt.Path[len(rt.Path)/2])
				break
			}
		}
		spec := RepairSpec{Defects: append([]Cell(nil), defects...)}
		if st.pl == pl {
			spec.Frozen = frozen
			spec.PrevPaths = map[int][]Cell{}
			for _, rt := range prevOnPl.Routes {
				spec.PrevPaths[rt.Task.ID] = rt.Path
			}
		}
		fresh, err := Repair(context.Background(), sr, comps, st.pl, pr, spec)
		if err != nil {
			t.Fatalf("step %d: fresh fields: %v", i, err)
		}
		spec.Fields = kept
		got, err := Repair(context.Background(), sr, comps, st.pl, pr, spec)
		if err != nil {
			t.Fatalf("step %d: kept fields: %v", i, err)
		}
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("step %d: kept fields routed differently from fresh ones", i)
		}
		reused := fields != nil && &kept.fields[0] == &fields[0]
		if reused != st.reuse {
			t.Fatalf("step %d: fields reused %v, want %v", i, reused, st.reuse)
		}
		for _, f := range fields {
			if reused && f != nil {
				carried++
			}
		}
		fields = kept.fields
		last = fresh
		if st.pl == pl {
			prevOnPl = fresh
		}
	}
	if carried == 0 {
		t.Fatal("no step found a field an earlier step computed")
	}
}
