package solio

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/route"
)

func solve(t *testing.T, name string, baseline bool) *core.Solution {
	t.Helper()
	bm, err := benchdata.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	o := core.DefaultOptions()
	o.Place.Imax = 30
	var sol *core.Solution
	if baseline {
		sol, err = core.SynthesizeBaseline(bm.Graph, bm.Alloc, o)
	} else {
		sol, err = core.Synthesize(bm.Graph, bm.Alloc, o)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestRoundTripPreservesEverything(t *testing.T) {
	for _, name := range []string{"PCR", "IVD", "Synthetic1"} {
		for _, baseline := range []bool{false, true} {
			sol := solve(t, name, baseline)
			var buf bytes.Buffer
			if err := Encode(&buf, sol); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := Decode(&buf)
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if got.Baseline != baseline {
				t.Errorf("%s: baseline flag lost", name)
			}
			a, b := sol.Metrics(), got.Metrics()
			if a.ExecutionTime != b.ExecutionTime ||
				a.ChannelLength != b.ChannelLength ||
				a.CacheTime != b.CacheTime ||
				a.ChannelWashTime != b.ChannelWashTime ||
				a.ComponentWashTime != b.ComponentWashTime ||
				a.Transports != b.Transports {
				t.Errorf("%s: metrics changed: %+v vs %+v", name, a, b)
			}
			if err := got.Validate(); err != nil {
				t.Errorf("%s: decoded solution invalid: %v", name, err)
			}
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	sol := solve(t, "IVD", false)
	var buf bytes.Buffer
	if err := Encode(&buf, sol); err != nil {
		t.Fatal(err)
	}
	orig := buf.String()

	// Wrong version.
	bad := strings.Replace(orig, `"version": 1`, `"version": 99`, 1)
	if _, err := Decode(strings.NewReader(bad)); err == nil {
		t.Error("wrong version accepted")
	}
	// Unknown field.
	bad = strings.Replace(orig, `"version": 1`, `"version": 1, "junk": 0`, 1)
	if _, err := Decode(strings.NewReader(bad)); err == nil {
		t.Error("unknown field accepted")
	}
	// Truncated document.
	if _, err := Decode(strings.NewReader(orig[:len(orig)/2])); err == nil {
		t.Error("truncated document accepted")
	}
	// A corrupted start time must fail validation on decode.
	bad = strings.Replace(orig, `"start_ms": 0`, `"start_ms": 999999`, 1)
	if bad != orig {
		if _, err := Decode(strings.NewReader(bad)); err == nil {
			t.Error("corrupted schedule accepted")
		}
	}
}

func TestEncodeNil(t *testing.T) {
	if err := Encode(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil solution accepted")
	}
}

// TestRoundTripRandomSolutions pushes randomly generated assays through
// synthesis and the serialization round trip.
func TestRoundTripRandomSolutions(t *testing.T) {
	if testing.Short() {
		t.Skip("random round trips in short mode")
	}
	for seed := uint64(1); seed <= 8; seed++ {
		alloc := chip.Allocation{2, 1, 0, 1}
		g := benchdata.GenerateSynthetic(fmt.Sprintf("rt%d", seed), 12+int(seed), alloc, seed)
		o := core.DefaultOptions()
		o.Place.Imax = 20
		sol, err := core.Synthesize(g, alloc, o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, sol); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.Metrics().ExecutionTime != sol.Metrics().ExecutionTime {
			t.Fatalf("seed %d: metrics drifted", seed)
		}
	}
}

// TestDecodeUnvalidatedAuditsTampered: a tampered file that Decode
// rejects must still come out of DecodeUnvalidated as an addressable
// solution so the independent auditor can report the violation itself.
func TestDecodeUnvalidatedAuditsTampered(t *testing.T) {
	sol := solve(t, "PCR", false)
	var buf bytes.Buffer
	if err := Encode(&buf, sol); err != nil {
		t.Fatal(err)
	}
	orig := buf.String()
	mk := fmt.Sprintf(`"makespan_ms": %d`, int64(sol.Schedule.Makespan))
	bad := strings.Replace(orig, mk, fmt.Sprintf(`"makespan_ms": %d`, int64(sol.Schedule.Makespan)+1), 1)
	if bad == orig {
		t.Fatalf("makespan field %q not found in encoding", mk)
	}
	if _, err := Decode(strings.NewReader(bad)); err == nil {
		t.Fatal("Decode accepted a tampered makespan")
	}
	got, err := DecodeUnvalidated(strings.NewReader(bad))
	if err != nil {
		t.Fatalf("DecodeUnvalidated rejected the tampered file: %v", err)
	}
	if rep := core.Audit(got); rep.OK() {
		t.Error("audit of the tampered solution found no violations")
	}
	// And an untampered file audits clean.
	got, err = DecodeUnvalidated(strings.NewReader(orig))
	if err != nil {
		t.Fatal(err)
	}
	if rep := core.Audit(got); !rep.OK() {
		t.Errorf("audit of a clean round trip found violations:\n%s", rep)
	}
}

// TestDegradationsRoundTrip: a degraded solution's provenance survives
// serialization, and a clean solution's encoding contains no
// degradations key at all (the byte-identity guarantee the pinned
// fingerprints rely on).
func TestDegradationsRoundTrip(t *testing.T) {
	sol := solve(t, "PCR", false)
	var clean bytes.Buffer
	if err := Encode(&clean, sol); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.String(), "degradations") {
		t.Fatal("clean solution encodes a degradations key")
	}
	sol.Degradations = []core.Degradation{
		{Stage: "schedule", Event: "baseline-fallback", Detail: "test"},
		{Stage: "route", Event: "ripup"},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, sol); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Degradations) != 2 ||
		got.Degradations[0] != sol.Degradations[0] ||
		got.Degradations[1] != sol.Degradations[1] {
		t.Fatalf("degradations changed in round trip: %+v", got.Degradations)
	}
}

// benchDoc synthesizes Synthetic4, the largest Table I benchmark, at
// Imax 60 and encodes it once.
func benchDoc(b *testing.B) (*core.Solution, []byte) {
	b.Helper()
	bm, err := benchdata.ByName("Synthetic4")
	if err != nil {
		b.Fatal(err)
	}
	o := core.DefaultOptions()
	o.Place.Imax = 60
	sol, err := core.Synthesize(bm.Graph, bm.Alloc, o)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, sol); err != nil {
		b.Fatal(err)
	}
	return sol, buf.Bytes()
}

// BenchmarkSolioEncode is a cache miss's encode of its solution.
func BenchmarkSolioEncode(b *testing.B) {
	sol, doc := benchDoc(b)
	var buf bytes.Buffer
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Encode(&buf, sol); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolioDecode is the full decode a cache entry's first read
// and a session open run: parse, rebuild and audit.
func BenchmarkSolioDecode(b *testing.B) {
	_, doc := benchDoc(b)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(doc)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeUnvalidatedOffPlanePathCell: a document whose first path
// cell lies off the plane — above it, far below it, or just right of it,
// where the cell's packed index aliases an on-plane cell — decodes
// without a panic or an error, and its audit reports path-bounds. The
// validating decoder rejects it.
func TestDecodeUnvalidatedOffPlanePathCell(t *testing.T) {
	sol := solve(t, "PCR", false)
	for _, edit := range [][2]int{{0, -1}, {0, 99999}, {sol.Placement.W, 3}} {
		t.Run(fmt.Sprintf("%d,%d", edit[0], edit[1]), func(t *testing.T) {
			tampered := *sol
			routing := *sol.Routing
			routing.Routes = append([]route.RoutedTask(nil), sol.Routing.Routes...)
			rt := routing.Routes[0]
			rt.Path = append([]route.Cell(nil), rt.Path...)
			rt.Path[0] = route.Cell{X: edit[0], Y: edit[1]}
			routing.Routes[0] = rt
			tampered.Routing = &routing
			var buf bytes.Buffer
			if err := Encode(&buf, &tampered); err != nil {
				t.Fatal(err)
			}
			if _, err := Decode(bytes.NewReader(buf.Bytes())); err == nil {
				t.Error("Decode accepted an off-plane path cell")
			}
			got, err := DecodeUnvalidated(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("DecodeUnvalidated: %v", err)
			}
			found := false
			for _, v := range core.Audit(got).Violations {
				found = found || v.Rule == "path-bounds"
			}
			if !found {
				t.Error("the audit reports no path-bounds violation")
			}
		})
	}
}
