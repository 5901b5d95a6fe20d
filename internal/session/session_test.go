package session

import (
	"context"
	"errors"
	"testing"

	"repro/internal/assay"
	"repro/internal/benchdata"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/fluid"
	"repro/internal/route"
	"repro/internal/schedule"
	"repro/internal/unit"
)

// synth builds a proposed-flow solution for a named benchmark with the
// given routing worker count (which must not affect any byte of the
// result — that is half of what these tests pin down).
func synth(t *testing.T, name string, workers int) (*core.Solution, chip.Allocation) {
	t.Helper()
	bm, err := benchdata.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Place.Imax = 60
	opts.Route.Workers = workers
	sol, err := core.Synthesize(bm.Graph, bm.Alloc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sol, bm.Alloc
}

func open(t *testing.T, name string, workers int) *Session {
	t.Helper()
	sol, alloc := synth(t, name, workers)
	s, err := New("s-test", sol, alloc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// suffixCell finds a dead-cell candidate: an interior cell of a route
// whose transport's consumer has not executed at the cut.
func suffixCell(t testing.TB, s *Session, at unit.Time) route.Cell {
	t.Helper()
	sol := s.Solution()
	executed := schedule.Executed(sol.Schedule, at)
	consumer := make(map[int]assay.OpID)
	for _, tr := range sol.Schedule.Transports {
		consumer[tr.ID] = tr.Consumer
	}
	for _, rt := range sol.Routing.Routes {
		if !executed[consumer[rt.Task.ID]] && len(rt.Path) >= 3 {
			return rt.Path[len(rt.Path)/2]
		}
	}
	t.Skip("no suffix transport with an interior cell at this cut")
	return route.Cell{}
}

// idleSuffixComp picks a component failure the reschedule rung can
// repair: a component with suffix work that is idle across the cut.
func idleSuffixComp(t testing.TB, sol *core.Solution, at unit.Time) chip.CompID {
	t.Helper()
	for _, bo := range sol.Schedule.Ops {
		if bo.Start >= at {
			busy := false
			for _, other := range sol.Schedule.Ops {
				if other.Comp == bo.Comp && other.Start < at && other.End > at {
					busy = true
					break
				}
			}
			if !busy {
				return bo.Comp
			}
		}
	}
	t.Skip("no idle component with suffix work at this cut")
	return chip.NoComp
}

func TestSessionCellFaultReroutes(t *testing.T) {
	s := open(t, "Synthetic3", 0)
	before := s.Snapshot()
	at := s.Solution().Schedule.Makespan / 2
	cell := suffixCell(t, s, at)

	rec, err := s.Repair(context.Background(), FaultReport{At: at, Cells: []route.Cell{cell}})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if rec.Rung != RungReroute || rec.Outcome != OutcomeRepaired {
		t.Errorf("rung/outcome = %s/%s, want %s/%s", rec.Rung, rec.Outcome, RungReroute, OutcomeRepaired)
	}
	if rec.CellsLost != 1 {
		t.Errorf("CellsLost = %d, want 1", rec.CellsLost)
	}
	if err := s.Solution().Validate(); err != nil {
		t.Fatalf("repaired solution invalid: %v", err)
	}
	for _, rt := range s.Solution().Routing.Routes {
		executed := schedule.Executed(s.Solution().Schedule, at)
		consumer := make(map[int]assay.OpID)
		for _, tr := range s.Solution().Schedule.Transports {
			consumer[tr.ID] = tr.Consumer
		}
		if !executed[consumer[rt.Task.ID]] {
			for _, c := range rt.Path {
				if c == cell {
					t.Errorf("re-planned task %d still crosses the dead cell", rt.Task.ID)
				}
			}
		}
	}
	after := s.Snapshot()
	if after.Fingerprint == before.Fingerprint {
		t.Error("repair did not change the solution fingerprint")
	}
	if after.State != Active || after.Cut != at || after.CellsLost != 1 {
		t.Errorf("snapshot after repair: %+v", after)
	}
}

func TestSessionCompFaultReschedules(t *testing.T) {
	s := open(t, "Synthetic3", 0)
	sol := s.Solution()
	at := sol.Schedule.Makespan / 2

	victim := idleSuffixComp(t, sol, at)

	rec, err := s.Repair(context.Background(), FaultReport{At: at, Comps: []chip.CompID{victim}})
	if err != nil {
		if errors.Is(err, ErrAbandoned) {
			t.Skipf("fault unrepairable on this benchmark: %v", err)
		}
		t.Fatalf("Repair: %v", err)
	}
	if rec.Rung != RungReschedule || rec.Outcome != OutcomeDegraded {
		t.Errorf("rung/outcome = %s/%s, want %s/%s", rec.Rung, rec.Outcome, RungReschedule, OutcomeDegraded)
	}
	if !s.Solution().Degraded() {
		t.Error("degraded repair left no Degradation record")
	}
	for id, bo := range s.Solution().Schedule.Ops {
		if bo.Comp == victim && bo.End > at {
			t.Errorf("op %d still uses failed component %d past the cut", id, victim)
		}
	}
	if err := s.Solution().Validate(); err != nil {
		t.Fatalf("repaired solution invalid: %v", err)
	}
}

// TestSessionRepairDeterminism: the same session seed and the same fault
// sequence produce byte-identical repairs at any routing worker-pool
// size — repairs are fingerprintable.
func TestSessionRepairDeterminism(t *testing.T) {
	run := func(workers int) []string {
		s := open(t, "Synthetic4", workers)
		at := s.Solution().Schedule.Makespan / 3
		cell := suffixCell(t, s, at)
		var prints []string
		rec, err := s.Repair(context.Background(), FaultReport{At: at, Cells: []route.Cell{cell}})
		if err != nil {
			t.Fatalf("workers=%d first repair: %v", workers, err)
		}
		prints = append(prints, rec.Fingerprint)
		at2 := at + (s.Solution().Schedule.Makespan-at)/2
		cell2 := suffixCell(t, s, at2)
		rec2, err := s.Repair(context.Background(), FaultReport{At: at2, Cells: []route.Cell{cell2}})
		if err != nil {
			t.Fatalf("workers=%d second repair: %v", workers, err)
		}
		prints = append(prints, rec2.Fingerprint)
		return prints
	}
	a, b := run(1), run(4)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("repair %d fingerprint differs across pool sizes: %s != %s", i, a[i], b[i])
		}
	}
}

// TestSessionAbandon: losing the only component of a needed type is
// structurally unrepairable — the session is abandoned, not left broken.
func TestSessionAbandon(t *testing.T) {
	g := chainOnMixer()
	alloc := chip.Allocation{}
	alloc[assay.Mix] = 1
	opts := core.DefaultOptions()
	opts.Place.Imax = 40
	sol, err := core.Synthesize(g, alloc, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New("s-abandon", sol, alloc)
	if err != nil {
		t.Fatal(err)
	}
	// The open-time what-if study must already flag the single mixer as
	// a single point of failure.
	if snap := s.Snapshot(); len(snap.SinglePoints) == 0 {
		t.Error("what-if analysis missed the single point of failure")
	}

	mixer := sol.Schedule.Ops[0].Comp
	at := sol.Schedule.Ops[0].End // first op executed, chain pending
	rec, err := s.Repair(context.Background(), FaultReport{At: at, Comps: []chip.CompID{mixer}})
	if !errors.Is(err, ErrAbandoned) {
		t.Fatalf("err = %v, want ErrAbandoned", err)
	}
	if rec.Outcome != OutcomeAbandoned || rec.Err == "" {
		t.Errorf("record = %+v, want abandoned with cause", rec)
	}
	if s.Snapshot().State != Abandoned {
		t.Errorf("state = %s, want %s", s.Snapshot().State, Abandoned)
	}
	// Abandoned sessions reject further reports.
	if _, err := s.Repair(context.Background(), FaultReport{At: at, Comps: []chip.CompID{mixer}}); !errors.Is(err, ErrNotActive) {
		t.Errorf("post-abandon repair err = %v, want ErrNotActive", err)
	}
}

func chainOnMixer() *assay.Graph {
	b := assay.NewBuilder("chain-mix")
	var prev assay.OpID
	for i := 0; i < 4; i++ {
		op := b.AddOp("m", assay.Mix, unit.Seconds(2), fluid.Fluid{D: 1e-6})
		if i > 0 {
			b.AddDep(prev, op)
		}
		prev = op
	}
	return b.MustBuild()
}

// TestSessionReportValidation: malformed reports are rejected without
// changing session state.
func TestSessionReportValidation(t *testing.T) {
	s := open(t, "Synthetic3", 0)
	before := s.Snapshot()
	ctx := context.Background()

	if _, err := s.Repair(ctx, FaultReport{At: 0}); err == nil {
		t.Error("empty report accepted")
	}
	if _, err := s.Repair(ctx, FaultReport{At: 0, Cells: []route.Cell{{X: -1, Y: 0}}}); err == nil {
		t.Error("out-of-plane cell accepted")
	}
	if _, err := s.Repair(ctx, FaultReport{At: 0, Comps: []chip.CompID{chip.CompID(len(s.Solution().Comps))}}); err == nil {
		t.Error("unknown component accepted")
	}
	// Monotonicity: a report may not precede the execution high-water.
	at := s.Solution().Schedule.Makespan / 2
	cell := suffixCell(t, s, at)
	if _, err := s.Repair(ctx, FaultReport{At: at, Cells: []route.Cell{cell}}); err != nil {
		t.Fatalf("valid repair failed: %v", err)
	}
	if _, err := s.Repair(ctx, FaultReport{At: at - 1, Cells: []route.Cell{cell}}); err == nil {
		t.Error("time-travelling report accepted")
	}
	if got := s.Snapshot(); got.CellsLost != 1 {
		t.Errorf("rejected reports changed state: %+v vs %+v", got, before)
	}
}

// TestSessionPreflightRungs: before execution starts the ladder may move
// the placement. Drive the dilate and SA rungs directly and hold their
// outputs to the same audit bar as any repair.
func TestSessionPreflightRungs(t *testing.T) {
	for _, rung := range []string{RungDilate, RungSA} {
		t.Run(rung, func(t *testing.T) {
			s := open(t, "Synthetic3", 0)
			banned := make([]bool, len(s.Solution().Comps))
			defects := []route.Cell{{X: 0, Y: 0}}
			sol, err := s.attempt(context.Background(), rung, 0, banned, defects)
			if err != nil {
				t.Fatalf("attempt(%s): %v", rung, err)
			}
			if rep := s.audit(sol, 0, banned, defects, rung); !rep.OK() {
				t.Fatalf("%s repair failed its audit:\n%s", rung, rep)
			}
			if err := sol.Validate(); err != nil {
				t.Fatalf("%s solution invalid: %v", rung, err)
			}
		})
	}
}

// TestSessionBaselineRejected: baseline solutions have no storage-aware
// suffix re-entry and cannot be pinned to a session.
func TestSessionBaselineRejected(t *testing.T) {
	bm := benchdata.Synthetic(3)
	opts := core.DefaultOptions()
	opts.Place.Imax = 40
	sol, err := core.SynthesizeBaseline(bm.Graph, bm.Alloc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New("s-base", sol, bm.Alloc); err == nil {
		t.Error("baseline solution accepted")
	}
}

func TestSessionClose(t *testing.T) {
	s := open(t, "PCR", 0)
	s.Close()
	if s.Snapshot().State != Closed {
		t.Errorf("state = %s, want %s", s.Snapshot().State, Closed)
	}
	if _, err := s.Repair(context.Background(), FaultReport{At: 0, Cells: []route.Cell{{X: 1, Y: 1}}}); !errors.Is(err, ErrNotActive) {
		t.Errorf("repair on closed session err = %v, want ErrNotActive", err)
	}
}
