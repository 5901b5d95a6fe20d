package session

import (
	"context"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/route"
	"repro/internal/unit"
)

var printSink string

// benchSolution is Synthetic4, the largest Table I benchmark, at Imax 60.
func benchSolution(b *testing.B) (*core.Solution, chip.Allocation) {
	b.Helper()
	bm, err := benchdata.ByName("Synthetic4")
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Place.Imax = 60
	sol, err := core.Synthesize(bm.Graph, bm.Alloc, opts)
	if err != nil {
		b.Fatal(err)
	}
	return sol, bm.Alloc
}

// BenchmarkSessionFingerprint is the print of a ~60 KB Synthetic4
// document. full encodes and hashes the whole document, as a session
// base and every rung that installs a new schedule or placement do;
// resume only the tail after the saved head, as every reroute does.
func BenchmarkSessionFingerprint(b *testing.B) {
	sol, _ := benchSolution(b)
	_, h, err := fingerprint(sol, head{})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		h    head
	}{{"full", head{}}, {"resume", h}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fp, _, err := fingerprint(sol, c.h)
				if err != nil {
					b.Fatal(err)
				}
				printSink = fp
			}
		})
	}
}

// BenchmarkSessionRepair is one Synthetic4 repair that holds at each rung
// of the ladder. reroute is a dead suffix cell at makespan/2 and
// reschedule a failed component there. dilate and sa are pre-flight cell
// faults whose cheaper rungs are made to fail by an injected
// route.step.fail at their first routed task (2 and 5 failed
// route.Repair calls). Each iteration's session is opened outside the
// timer.
func BenchmarkSessionRepair(b *testing.B) {
	sol, alloc := benchSolution(b)
	ms := sol.Schedule.Makespan
	for _, c := range []struct {
		rung   string
		at     unit.Time
		comp   bool
		failed int // route.Repair calls that fail before the rung holds
	}{
		{RungReroute, ms / 2, false, 0},
		{RungReschedule, ms / 2, true, 0},
		{RungDilate, 0, false, 2},
		{RungSA, 0, false, 5},
	} {
		b.Run(c.rung, func(b *testing.B) {
			s, err := New("bench", sol, alloc)
			if err != nil {
				b.Fatal(err)
			}
			fr := FaultReport{At: c.at}
			if c.comp {
				fr.Comps = []chip.CompID{idleSuffixComp(b, sol, c.at)}
			} else {
				fr.Cells = []route.Cell{suffixCell(b, s, c.at)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if s, err = New("bench", sol, alloc); err != nil {
					b.Fatal(err)
				}
				ctx := context.Background()
				if c.failed > 0 {
					ctx = fault.Into(ctx, fault.NewPlan(1).Arm(fault.RouteStepFail, fault.Policy{Prob: 1, Limit: c.failed}))
				}
				b.StartTimer()
				rec, err := s.Repair(ctx, fr)
				if err != nil {
					b.Fatal(err)
				}
				if rec.Rung != c.rung {
					b.Fatalf("repair held at rung %s, want %s", rec.Rung, c.rung)
				}
			}
		})
	}
}
