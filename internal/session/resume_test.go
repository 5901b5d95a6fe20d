package session

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/route"
	"repro/internal/schedule"
	"repro/internal/solio"
	"repro/internal/unit"
)

// wholePrint is a session print computed from nothing but the
// solution: the SHA-256 of its whole canonical document, CPU zeroed.
func wholePrint(t *testing.T, sol *core.Solution) string {
	t.Helper()
	c := *sol
	c.CPU = 0
	var buf bytes.Buffer
	if err := solio.Encode(&buf, &c); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestSessionRungSequencePrints interleaves every rung of the ladder on
// one session and checks, after each repair, that the print the session
// reports (and keeps for its next resume) is the whole-document print of
// the solution it installed. A reroute resumes the print after the
// document's head; a dilate, sa or reschedule installs a new placement
// or schedule, so the print after it must be taken in full and its head
// saved afresh. The cuts are fractions of the opened solution's
// makespan; the pre-flight rungs are forced with an injected
// route.step.fail, as BenchmarkSessionRepair forces them.
func TestSessionRungSequencePrints(t *testing.T) {
	steps := []struct {
		num, den int64 // the cut, as a fraction of the opened makespan
		comp     bool  // a failed component instead of a dead cell
		failed   int   // route.Repair calls failed before the rung holds
		rung     string
	}{
		{0, 1, false, 2, RungDilate},
		{0, 1, false, 0, RungReroute},
		{0, 1, false, 5, RungSA},
		{1, 4, false, 0, RungReroute},
		{1, 2, true, 0, RungReschedule},
		{5, 8, false, 0, RungReroute},
		{3, 4, false, 0, RungReroute},
	}
	named := func(name string) func(*testing.T) (*core.Solution, chip.Allocation) {
		return func(t *testing.T) (*core.Solution, chip.Allocation) { return synth(t, name, 0) }
	}
	for _, c := range []struct {
		name string
		sol  func(*testing.T) (*core.Solution, chip.Allocation)
	}{
		{"CPA", named("CPA")},
		{"Synthetic3", named("Synthetic3")},
		{"Synthetic4", named("Synthetic4")},
		{"gen12", func(t *testing.T) (*core.Solution, chip.Allocation) {
			alloc := chip.Allocation{3, 3, 2, 1}
			g := benchdata.GenerateSynthetic("gen12", 12, alloc, 7)
			opts := core.DefaultOptions()
			opts.Place.Imax = 60
			sol, err := core.Synthesize(g, alloc, opts)
			if err != nil {
				t.Fatal(err)
			}
			return sol, alloc
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sol, alloc := c.sol(t)
			s, err := New("s-seq", sol, alloc)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := s.Snapshot().Fingerprint, wholePrint(t, sol); got != want {
				t.Fatalf("open print %s, whole-document print %s", got, want)
			}
			ms := sol.Schedule.Makespan
			for i, st := range steps {
				at := unit.Time(int64(ms) * st.num / st.den)
				fr := FaultReport{At: at}
				if st.comp {
					fr.Comps = []chip.CompID{spareSuffixComp(t, s.Solution(), at)}
				} else {
					fr.Cells = []route.Cell{liveSuffixCell(t, s.Solution(), at, s.defects)}
				}
				ctx := context.Background()
				if st.failed > 0 {
					ctx = fault.Into(ctx, fault.NewPlan(1).Arm(fault.RouteStepFail, fault.Policy{Prob: 1, Limit: st.failed}))
				}
				rec, err := s.Repair(ctx, fr)
				if err != nil {
					t.Fatalf("step %d (%s at %v): %v", i, st.rung, at, err)
				}
				if rec.Rung != st.rung {
					t.Fatalf("step %d held at rung %s, want %s", i, rec.Rung, st.rung)
				}
				if want := wholePrint(t, s.Solution()); rec.Fingerprint != want {
					t.Errorf("step %d (%s): print %s, whole-document print %s", i, st.rung, rec.Fingerprint, want)
				}
				if snap := s.Snapshot().Fingerprint; snap != rec.Fingerprint {
					t.Errorf("step %d (%s): snapshot print %s, record %s", i, st.rung, snap, rec.Fingerprint)
				}
			}
		})
	}
}

// liveSuffixCell is suffixCell on a solution, skipping cells already
// dead: an interior cell of a route whose consumer has not executed at
// the cut. It fails the test instead of skipping it, so a sequence
// cannot silently lose a step.
func liveSuffixCell(t *testing.T, sol *core.Solution, at unit.Time, dead []route.Cell) route.Cell {
	t.Helper()
	executed := schedule.Executed(sol.Schedule, at)
	consumer := make(map[int]int, len(sol.Schedule.Transports))
	for _, tr := range sol.Schedule.Transports {
		consumer[tr.ID] = int(tr.Consumer)
	}
	for _, rt := range sol.Routing.Routes {
		if executed[consumer[rt.Task.ID]] || len(rt.Path) < 3 {
			continue
		}
		if c := rt.Path[len(rt.Path)/2]; !cellKnown(dead, c) {
			return c
		}
	}
	t.Fatalf("no live suffix channel cell at %v", at)
	return route.Cell{}
}

// spareSuffixComp is a component the reschedule rung can take off the
// chip: it has work at or after the cut and none before it, so no fluid
// rests in it, and another component of its type survives.
func spareSuffixComp(t *testing.T, sol *core.Solution, at unit.Time) chip.CompID {
	t.Helper()
	for _, bo := range sol.Schedule.Ops {
		if bo.Start < at {
			continue
		}
		spare, busy := false, false
		for _, c := range sol.Comps {
			spare = spare || c.ID != bo.Comp && c.Kind == sol.Comps[bo.Comp].Kind
		}
		for _, o := range sol.Schedule.Ops {
			busy = busy || o.Comp == bo.Comp && o.Start < at
		}
		if spare && !busy {
			return bo.Comp
		}
	}
	t.Fatalf("no spare unused component with suffix work at %v", at)
	return chip.NoComp
}

// TestSessionDropsFieldsWhenTerminal: a session keeps the router's
// heuristic fields across its repairs and drops them when it closes or
// is abandoned, since the server retains terminal sessions.
func TestSessionDropsFieldsWhenTerminal(t *testing.T) {
	kept := func(s *Session) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return !reflect.ValueOf(s.fields).IsZero()
	}
	s := open(t, "Synthetic3", 0)
	at := s.Solution().Schedule.Makespan / 2
	if _, err := s.Repair(context.Background(), FaultReport{At: at, Cells: []route.Cell{suffixCell(t, s, at)}}); err != nil {
		t.Fatal(err)
	}
	if !kept(s) {
		t.Fatal("a repaired session keeps no fields")
	}
	s.Close()
	if kept(s) {
		t.Error("a closed session still holds its fields")
	}

	s = open(t, "Synthetic3", 0)
	if _, err := s.Repair(context.Background(), FaultReport{At: at, Cells: []route.Cell{suffixCell(t, s, at)}}); err != nil {
		t.Fatal(err)
	}
	all := make([]chip.CompID, len(s.Solution().Comps))
	for i := range all {
		all[i] = chip.CompID(i)
	}
	if _, err := s.Repair(context.Background(), FaultReport{At: at, Comps: all}); !errors.Is(err, ErrAbandoned) {
		t.Fatalf("losing every component: %v, want ErrAbandoned", err)
	}
	if kept(s) {
		t.Error("an abandoned session still holds its fields")
	}
}
