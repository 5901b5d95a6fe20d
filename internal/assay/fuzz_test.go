package assay

import (
	"bytes"
	"encoding/json"
	"testing"
)

// referenceMarshal is the reflection-based encoding MarshalJSON
// replaced: jsonGraph through json.MarshalIndent with two-space
// indentation. It is the oracle MarshalJSON's bytes are held to.
func referenceMarshal(g *Graph) ([]byte, error) {
	jg := jsonGraph{Name: g.name}
	for _, op := range g.ops {
		jg.Operations = append(jg.Operations, jsonOp{
			Name:      op.Name,
			Type:      op.Type.String(),
			Duration:  op.Duration.String(),
			Fluid:     op.Output.Name,
			Diffusion: float64(op.Output.D),
		})
	}
	for _, e := range g.edges {
		jg.Deps = append(jg.Deps, jsonEdge{From: g.ops[e.From].Name, To: g.ops[e.To].Name})
	}
	return json.MarshalIndent(jg, "", "  ")
}

// FuzzDecodeCanonical throws arbitrary bytes at the assay JSON decoder —
// the service accepts this format from the network, so Decode must never
// panic, and any graph it does accept must have a byte-stable canonical
// encoding (a stronger property than FuzzDecode's shape round trip: the
// service cache key hashes MarshalJSON output, so instability would split
// identical assays across cache entries). The encoding must also be the
// reflection-based reference's, byte for byte.
func FuzzDecodeCanonical(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","operations":[],"dependencies":[]}`))
	f.Add([]byte(`{"name":"pcr","operations":[
		{"name":"m1","type":"mix","duration":"6s","fluid":"a","diffusion_cm2_per_s":1e-6},
		{"name":"m2","type":"mix","duration":"6s","fluid":"b","diffusion_cm2_per_s":5e-7},
		{"name":"m3","type":"mix","duration":"6s","fluid":"c","diffusion_cm2_per_s":1e-6}],
		"dependencies":[{"from":"m1","to":"m3"},{"from":"m2","to":"m3"}]}`))
	f.Add([]byte(`{"name":"h","operations":[{"name":"h1","type":"heat","duration":"0.2s"}]}`))
	f.Add([]byte(`{"name":"d","operations":[{"name":"d1","type":"detect","duration":"5s"}]}`))
	f.Add([]byte(`{"name":"cyc","operations":[{"name":"a","type":"mix","duration":"1s"},
		{"name":"b","type":"mix","duration":"1s"}],
		"dependencies":[{"from":"a","to":"b"},{"from":"b","to":"a"}]}`))
	f.Add([]byte(`{"name":"dup","operations":[{"name":"a","type":"mix","duration":"1s"},
		{"name":"a","type":"mix","duration":"1s"}]}`))
	f.Add([]byte(`{"name":"bad","operations":[{"name":"a","type":"mix","duration":"-1s"}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"name":"<&>\u2028","operations":[{"name":"a\"\n","type":"mix","duration":"1.25s","fluid":"\u00e9\ufffd","diffusion_cm2_per_s":1.5e-9},
		{"name":"b","type":"filter","duration":"2s","diffusion_cm2_per_s":2e21}],
		"dependencies":[{"from":"a\"\n","to":"b"}]}`))
	f.Add([]byte("{\"name\":\"\u0000\",\"operations\":[{\"name\":\"\",\"type\":\"store\",\"duration\":\"1h\"}]}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejecting garbage is correct; panicking is not
		}
		// Accepted graphs must re-encode and decode to the same bytes:
		// the service's cache key hashes MarshalJSON output, so this
		// round trip is what makes content addressing sound.
		first, err := g.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted graph failed to marshal: %v", err)
		}
		ref, err := referenceMarshal(g)
		if err != nil {
			t.Fatalf("reference failed to marshal an accepted graph: %v", err)
		}
		if !bytes.Equal(first, ref) {
			t.Fatalf("MarshalJSON differs from the reference:\ngot:\n%s\nwant:\n%s", first, ref)
		}
		g2, err := Decode(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v\nencoding:\n%s", err, first)
		}
		second, err := g2.MarshalJSON()
		if err != nil {
			t.Fatalf("second marshal failed: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding not stable:\nfirst:\n%s\nsecond:\n%s", first, second)
		}
	})
}
