package assay

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fluid"
	"repro/internal/unit"
)

func sample(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("sample")
	o1 := b.AddOp("o1", Mix, unit.Seconds(3), fluid.Fluid{Name: "lysis-buffer", D: 1e-5})
	o2 := b.AddOp("o2", Heat, unit.Seconds(4.5), fluid.Fluid{Name: "virus", D: 5e-8})
	o3 := b.AddOp("o3", Detect, unit.Seconds(2), fluid.Fluid{Name: "readout", D: 1e-6})
	b.AddDep(o1, o2)
	b.AddDep(o2, o3)
	return b.MustBuild()
}

func TestJSONRoundTrip(t *testing.T) {
	g := sample(t)
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Name() != g.Name() || g2.NumOps() != g.NumOps() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %q %d/%d vs %q %d/%d",
			g2.Name(), g2.NumOps(), g2.NumEdges(), g.Name(), g.NumOps(), g.NumEdges())
	}
	for i := 0; i < g.NumOps(); i++ {
		a, b := g.Op(OpID(i)), g2.Op(OpID(i))
		if a.Name != b.Name || a.Type != b.Type || a.Duration != b.Duration ||
			a.Output.Name != b.Output.Name || a.Output.D != b.Output.D {
			t.Errorf("op %d changed: %+v vs %+v", i, a, b)
		}
	}
}

func TestDecodeRejectsUnknownField(t *testing.T) {
	in := `{"name":"x","operations":[{"name":"o1","type":"mix","duration":"2s","diffusion_cm2_per_s":1e-6}],"dependencies":[],"bogus":1}`
	if _, err := Decode(strings.NewReader(in)); err == nil {
		t.Error("unknown field not rejected")
	}
}

func TestDecodeRejectsUnknownDependencyName(t *testing.T) {
	in := `{"name":"x","operations":[{"name":"o1","type":"mix","duration":"2s","diffusion_cm2_per_s":1e-6}],"dependencies":[{"from":"o1","to":"nope"}]}`
	if _, err := Decode(strings.NewReader(in)); err == nil {
		t.Error("unknown dependency target not rejected")
	}
	in = `{"name":"x","operations":[{"name":"o1","type":"mix","duration":"2s","diffusion_cm2_per_s":1e-6}],"dependencies":[{"from":"nope","to":"o1"}]}`
	if _, err := Decode(strings.NewReader(in)); err == nil {
		t.Error("unknown dependency source not rejected")
	}
}

func TestDecodeRejectsDuplicateNames(t *testing.T) {
	in := `{"name":"x","operations":[
		{"name":"o1","type":"mix","duration":"2s","diffusion_cm2_per_s":1e-6},
		{"name":"o1","type":"mix","duration":"2s","diffusion_cm2_per_s":1e-6}],
		"dependencies":[]}`
	if _, err := Decode(strings.NewReader(in)); err == nil {
		t.Error("duplicate operation names not rejected")
	}
}

func TestDecodeRejectsBadType(t *testing.T) {
	in := `{"name":"x","operations":[{"name":"o1","type":"shake","duration":"2s","diffusion_cm2_per_s":1e-6}],"dependencies":[]}`
	if _, err := Decode(strings.NewReader(in)); err == nil {
		t.Error("bad type not rejected")
	}
}

func TestDecodeRejectsBadDuration(t *testing.T) {
	in := `{"name":"x","operations":[{"name":"o1","type":"mix","duration":"fast","diffusion_cm2_per_s":1e-6}],"dependencies":[]}`
	if _, err := Decode(strings.NewReader(in)); err == nil {
		t.Error("bad duration not rejected")
	}
}

func TestDecodeRejectsCycle(t *testing.T) {
	in := `{"name":"x","operations":[
		{"name":"o1","type":"mix","duration":"2s","diffusion_cm2_per_s":1e-6},
		{"name":"o2","type":"mix","duration":"2s","diffusion_cm2_per_s":1e-6}],
		"dependencies":[{"from":"o1","to":"o2"},{"from":"o2","to":"o1"}]}`
	if _, err := Decode(strings.NewReader(in)); err == nil {
		t.Error("cyclic JSON assay not rejected")
	}
}

func TestWriteDOT(t *testing.T) {
	g := sample(t)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "o0 -> o1", "o1 -> o2", "heat", "mix"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func FuzzDecode(f *testing.F) {
	var buf bytes.Buffer
	g := NewBuilder("seed")
	o1 := g.AddOp("o1", Mix, unit.Seconds(2), fluid.Fluid{D: 1e-6})
	o2 := g.AddOp("o2", Detect, unit.Seconds(1), fluid.Fluid{D: 1e-5})
	g.AddDep(o1, o2)
	_ = Encode(&buf, g.MustBuild())
	f.Add(buf.String())
	f.Add(`{"name":"x","operations":[],"dependencies":[]}`)
	f.Add(`{`)
	f.Fuzz(func(t *testing.T, s string) {
		decoded, err := Decode(strings.NewReader(s))
		if err != nil {
			return
		}
		// Anything that decodes must be a valid graph and survive a
		// round trip.
		if err := decoded.Validate(); err != nil {
			t.Fatalf("Decode accepted invalid graph: %v", err)
		}
		var out bytes.Buffer
		if err := Encode(&out, decoded); err != nil {
			t.Fatal(err)
		}
		again, err := Decode(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.NumOps() != decoded.NumOps() || again.NumEdges() != decoded.NumEdges() {
			t.Fatal("round trip changed shape")
		}
	})
}

// TestMarshalMatchesReference holds MarshalJSON to the reflection-based
// reference over graphs whose names need escapes and whose diffusions
// and durations cover both float notations and fractional seconds, with
// and without dependencies.
func TestMarshalMatchesReference(t *testing.T) {
	names := []string{"o", "<mix>", "a&b", "q\"", "\u2028", "\xff", "é", ""}
	ds := []unit.Diffusion{1e-5, 5e-8, 1.5e-9, 1e-6, 9.99e-7, 0.5, 2e21, 123.456}
	for n := 1; n <= 8; n++ {
		b := NewBuilder(names[n%len(names)] + "graph")
		for i := 0; i < n; i++ {
			b.AddOp(names[i%len(names)], OpType(i%NumOpTypes), unit.Time(250*(i+1)),
				fluid.Fluid{Name: names[(i+n)%len(names)], D: ds[(i+n)%len(ds)]})
			if i > 0 && n%2 == 0 {
				b.AddDep(OpID(i-1), OpID(i))
			}
		}
		g := b.MustBuild()
		got, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceMarshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%d ops: MarshalJSON\n%s\nreference\n%s", n, got, want)
		}
	}
}
