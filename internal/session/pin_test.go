package session

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/route"
	"repro/internal/solio"
	"repro/internal/unit"
)

// pinnedPrints are Synthetic4's session fingerprints at open and after
// three reroute repairs, captured from the reflection-based encoder: a
// faster canonical writer must leave every one of them unchanged.
var pinnedPrints = []string{
	"229f827fedc1ad76630361b6ec514e9d2e139f134e6830fc668556da46b72495",
	"3d3e3f40a430c29a7c84d2922b82e8c93de4166f32625ebffcd700dacdc2040a",
	"d2dd5760519fb6fd0c698fb2271679bccdc45d24e1509a4260fbea5f89e10f1a",
	"fa21af09920d2ceec8716f73fdca63437b09cb09c963acd19eda255264fe1489",
}

func TestSessionFingerprintsPinned(t *testing.T) {
	s := open(t, "Synthetic4", 0)
	ms := s.Solution().Schedule.Makespan
	prints := []string{s.Snapshot().Fingerprint}
	for _, at := range []unit.Time{ms / 4, ms / 2, 3 * ms / 4} {
		cell := suffixCell(t, s, at)
		rec, err := s.Repair(context.Background(), FaultReport{At: at, Cells: []route.Cell{cell}})
		if err != nil {
			t.Fatalf("repair at %v: %v", at, err)
		}
		if rec.Rung != RungReroute {
			t.Fatalf("repair at %v held at rung %s, want %s", at, rec.Rung, RungReroute)
		}
		prints = append(prints, rec.Fingerprint)
	}
	for i, got := range prints {
		if got != pinnedPrints[i] {
			t.Errorf("print %d: %q, pinned %q", i, got, pinnedPrints[i])
		}
	}
}

// TestFingerprintCoversInstalledSolution: every print a session reports
// is the SHA-256 of the canonical document of the solution it holds,
// CPU time zeroed — at open and after a repair at each rung, the
// degraded rungs' session degradation record included. (The document
// is solio.Encode's, which solio's differential test holds to the
// reflection-based reference byte for byte.) The pre-flight rungs are
// reached by failing the cheaper rungs' first routed task with an
// injected route.step.fail.
func TestFingerprintCoversInstalledSolution(t *testing.T) {
	check := func(t *testing.T, s *Session, print string) {
		t.Helper()
		sol := *s.Solution()
		sol.CPU = 0
		var buf bytes.Buffer
		if err := solio.Encode(&buf, &sol); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if want := hex.EncodeToString(sum[:]); print != want {
			t.Errorf("print %s, installed solution hashes to %s", print, want)
		}
		if snap := s.Snapshot().Fingerprint; snap != print {
			t.Errorf("snapshot print %s, repair record %s", snap, print)
		}
	}
	repair := func(t *testing.T, s *Session, ctx context.Context, fr FaultReport, rung string) {
		t.Helper()
		rec, err := s.Repair(ctx, fr)
		if err != nil {
			t.Fatalf("repair: %v", err)
		}
		if rec.Rung != rung {
			t.Fatalf("repair held at rung %s, want %s", rec.Rung, rung)
		}
		if rung != RungReroute && !s.Solution().Degraded() {
			t.Fatalf("%s repair installed no degradation record", rung)
		}
		check(t, s, rec.Fingerprint)
	}

	t.Run("open", func(t *testing.T) {
		s := open(t, "Synthetic3", 0)
		check(t, s, s.Snapshot().Fingerprint)
	})
	t.Run(RungReroute, func(t *testing.T) {
		s := open(t, "Synthetic3", 0)
		at := s.Solution().Schedule.Makespan / 2
		repair(t, s, context.Background(), FaultReport{At: at, Cells: []route.Cell{suffixCell(t, s, at)}}, RungReroute)
	})
	t.Run(RungReschedule, func(t *testing.T) {
		s := open(t, "Synthetic3", 0)
		at := s.Solution().Schedule.Makespan / 2
		comp := idleSuffixComp(t, s.Solution(), at)
		repair(t, s, context.Background(), FaultReport{At: at, Comps: []chip.CompID{comp}}, RungReschedule)
	})
	for _, c := range []struct {
		rung   string
		failed int // route.Repair calls failed before the rung holds
	}{{RungDilate, 2}, {RungSA, 5}} {
		t.Run(c.rung, func(t *testing.T) {
			s := open(t, "Synthetic3", 0)
			ctx := fault.Into(context.Background(),
				fault.NewPlan(1).Arm(fault.RouteStepFail, fault.Policy{Prob: 1, Limit: c.failed}))
			repair(t, s, ctx, FaultReport{At: 0, Cells: []route.Cell{suffixCell(t, s, 0)}}, c.rung)
		})
	}
}
