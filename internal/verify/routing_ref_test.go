package verify_test

import (
	"bytes"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/core"
	"repro/internal/solio"
	"repro/internal/verify"
)

// TestRoutingMatchesReference: the ring predicate and the flat calendar
// report exactly what the map-based routing check reported — the same
// violations in the same order and the same Stats — on DCSA and BA
// solutions of all 7 Table I benchmarks and on every mutant of the
// mutation-kill catalogue of PCR (DCSA and BA) and IVD (DCSA).
func TestRoutingMatchesReference(t *testing.T) {
	o := core.DefaultOptions()
	o.Place.Imax = 30
	check := func(t *testing.T, name string, sol *core.Solution) *verify.Report {
		t.Helper()
		got, want, same := verify.RoutingMatchesReference(verify.Input{
			Assay: sol.Assay, Comps: sol.Comps, Schedule: sol.Schedule,
			Placement: sol.Placement, Routing: sol.Routing, Baseline: sol.Baseline,
		})
		if !same {
			t.Fatalf("%s: routing check reports\n%+v\nreference reports\n%+v", name, got, want)
		}
		return got
	}
	for _, bm := range benchdata.All() {
		for _, baseline := range []bool{false, true} {
			bm, baseline := bm, baseline
			algo := "DCSA"
			if baseline {
				algo = "BA"
			}
			t.Run(bm.Name+"/"+algo, func(t *testing.T) {
				t.Parallel()
				synth := core.Synthesize
				if baseline {
					synth = core.SynthesizeBaseline
				}
				sol, err := synth(bm.Graph, bm.Alloc, o)
				if err != nil {
					t.Fatal(err)
				}
				if rep := check(t, "clean", sol); !rep.OK() || rep.Stats.Slots == 0 {
					t.Fatalf("clean solution: %+v", rep)
				}
				if bm.Name != "PCR" && (bm.Name != "IVD" || baseline) {
					return
				}
				var buf bytes.Buffer
				if err := solio.Encode(&buf, sol); err != nil {
					t.Fatal(err)
				}
				applied, caught := 0, 0
				for _, m := range catalogue(sol) {
					cp := freshCopy(t, buf.Bytes())
					if m.apply(cp) {
						applied++
						if !check(t, m.name, cp).OK() {
							caught++
						}
					}
				}
				if applied < 30 || caught == 0 {
					t.Fatalf("%d mutants applied, %d of them caught by the routing check", applied, caught)
				}
				t.Logf("%d mutants applied, %d caught by the routing check", applied, caught)
			})
		}
	}
}

// TestAuditRectCountMismatch: a placement missing the last component's
// rectangle is reported — rect-count, and an endpoint violation for each
// route ending at that component — where the map-based rings indexed
// past their end and panicked.
func TestAuditRectCountMismatch(t *testing.T) {
	bm, err := benchdata.ByName("PCR")
	if err != nil {
		t.Fatal(err)
	}
	o := core.DefaultOptions()
	o.Place.Imax = 30
	sol, err := core.Synthesize(bm.Graph, bm.Alloc, o)
	if err != nil {
		t.Fatal(err)
	}
	sol.Placement.Rects = sol.Placement.Rects[:len(sol.Placement.Rects)-1]
	rules := map[string]int{}
	for _, v := range core.Audit(sol).Violations {
		rules[v.Rule]++
	}
	if rules["rect-count"] != 1 || rules["endpoint-src"]+rules["endpoint-dst"] == 0 {
		t.Fatalf("violations by rule: %v", rules)
	}
}
