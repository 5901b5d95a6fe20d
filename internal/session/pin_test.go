package session

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"slices"
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

// rungPins are the open print, every repair print and the print after
// close of three fault sequences per benchmark, each rung as listed:
//
//	a: reroute at makespan/4, a failed idle component at makespan/2
//	   (reschedule), reroute at 3/4;
//	b: a pre-flight cell fault forced to the dilate rung, then a reroute
//	   at makespan/2;
//	c: the same forced to the sa rung, then a reroute at makespan/2.
//
// Cuts are fractions of the opened solution's makespan. The dilate and
// sa rungs are forced as BenchmarkSessionRepair forces them, by failing
// the cheaper rungs' route.Repair calls with an injected
// route.step.fail. Each sequence installs a new schedule or placement
// between reroutes, so the prints pin a resumed fingerprint's
// invalidation as well as its bytes.
var rungPins = []struct {
	bench, seq string
	rungs      []string
	prints     []string
}{
	{"Synthetic4", "a", []string{RungReroute, RungReschedule, RungReroute}, []string{
		"229f827fedc1ad76630361b6ec514e9d2e139f134e6830fc668556da46b72495",
		"3d3e3f40a430c29a7c84d2922b82e8c93de4166f32625ebffcd700dacdc2040a",
		"5c5b6db836eac9ccc70d85ec009e7d0dbf4b8ab4a187b139d068e4eff9295188",
		"62f877c28408925e99a3d108d1061258e5658dc4533c3ca9a512d3e51233dac3",
		"62f877c28408925e99a3d108d1061258e5658dc4533c3ca9a512d3e51233dac3",
	}},
	{"Synthetic4", "b", []string{RungDilate, RungReroute}, []string{
		"229f827fedc1ad76630361b6ec514e9d2e139f134e6830fc668556da46b72495",
		"1c9282808c6a7112c1ea635832fe7902d92be241bbe6116a0f1b1dac4cd63b61",
		"a3b8928aa109b590f831ffbd8f68217ae5aa97cdc29ab9938f93d70a0308a98a",
		"a3b8928aa109b590f831ffbd8f68217ae5aa97cdc29ab9938f93d70a0308a98a",
	}},
	{"Synthetic4", "c", []string{RungSA, RungReroute}, []string{
		"229f827fedc1ad76630361b6ec514e9d2e139f134e6830fc668556da46b72495",
		"6608e005a160cb6379e0fd101831e96c717f8dd99b4eb5669c742bb5fab33ddd",
		"49a07e78632a6d82abe7b615d93886dea4d803e98d6212663e227345e628ab04",
		"49a07e78632a6d82abe7b615d93886dea4d803e98d6212663e227345e628ab04",
	}},
	{"CPA", "a", []string{RungReroute, RungReschedule, RungReroute}, []string{
		"cad528329f3832a7d0a6d49e89aafd869fbad511af2ff96113c7ae1aee11c67d",
		"0a28cb579c3b85ff3f1023f1c2c288f85f3458ec4476b7af97876ccb73409cf1",
		"a5c2e2db0343ada02d1ca8111e3fef608d90f3373f4a03ace01014d2597d754c",
		"d97f55bfcc883154e26ea884a50682b2d1c8651e782a765bb562dfb598eb24ba",
		"d97f55bfcc883154e26ea884a50682b2d1c8651e782a765bb562dfb598eb24ba",
	}},
	{"CPA", "b", []string{RungDilate, RungReroute}, []string{
		"cad528329f3832a7d0a6d49e89aafd869fbad511af2ff96113c7ae1aee11c67d",
		"a362492956ea4a25c058d476b573c2ea2284d10216b6790d62eaaccd08882ff7",
		"d5f3cf7982c58140ce90f02f4485913458a04d6c1fe6e9d1ca380e3137b08505",
		"d5f3cf7982c58140ce90f02f4485913458a04d6c1fe6e9d1ca380e3137b08505",
	}},
	{"CPA", "c", []string{RungSA, RungReroute}, []string{
		"cad528329f3832a7d0a6d49e89aafd869fbad511af2ff96113c7ae1aee11c67d",
		"77305c484246de51fd17ae0175ed938be766e9908f2008fc79136b107ebc21f3",
		"f95eb42225b94659c79da147d0e9c5ce6eecaddffe703a4dcd1e16d1af0b6f9f",
		"f95eb42225b94659c79da147d0e9c5ce6eecaddffe703a4dcd1e16d1af0b6f9f",
	}},
}

func TestSessionRungPrintsPinned(t *testing.T) {
	for _, pin := range rungPins {
		t.Run(pin.bench+"/"+pin.seq, func(t *testing.T) {
			s := open(t, pin.bench, 0)
			ms := s.Solution().Schedule.Makespan
			prints := []string{s.Snapshot().Fingerprint}
			var rungs []string
			repair := func(ctx context.Context, fr FaultReport) {
				t.Helper()
				rec, err := s.Repair(ctx, fr)
				if err != nil {
					t.Fatalf("repair at %v: %v", fr.At, err)
				}
				rungs = append(rungs, rec.Rung)
				prints = append(prints, rec.Fingerprint)
			}
			cellAt := func(at unit.Time) FaultReport {
				return FaultReport{At: at, Cells: []route.Cell{suffixCell(t, s, at)}}
			}
			switch pin.seq {
			case "a":
				repair(context.Background(), cellAt(ms/4))
				comp := idleSuffixComp(t, s.Solution(), ms/2)
				repair(context.Background(), FaultReport{At: ms / 2, Comps: []chip.CompID{comp}})
				repair(context.Background(), cellAt(3*ms/4))
			case "b", "c":
				failed := 2 // reroute and reschedule
				if pin.seq == "c" {
					failed = 5 // and dilate's three tries
				}
				ctx := fault.Into(context.Background(),
					fault.NewPlan(1).Arm(fault.RouteStepFail, fault.Policy{Prob: 1, Limit: failed}))
				repair(ctx, cellAt(0))
				repair(context.Background(), cellAt(ms/2))
			}
			s.Close()
			prints = append(prints, s.Snapshot().Fingerprint)
			if !slices.Equal(rungs, pin.rungs) {
				t.Fatalf("rungs %v, pinned %v", rungs, pin.rungs)
			}
			for i, got := range prints {
				if got != pin.prints[i] {
					t.Errorf("print %d: %s, pinned %s", i, got, pin.prints[i])
				}
			}
		})
	}
}
