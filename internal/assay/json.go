package assay

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/fluid"
	"repro/internal/jsonw"
	"repro/internal/unit"
)

// jsonGraph is the on-disk representation consumed by cmd/mfsyn and
// produced by cmd/mfgen, as Decode reads it; WriteJSON writes the same
// fields in the same order. Times are strings in the paper's units ("2s",
// "0.2s"); diffusion coefficients are plain numbers in cm²/s.
type jsonGraph struct {
	Name       string     `json:"name"`
	Operations []jsonOp   `json:"operations"`
	Deps       []jsonEdge `json:"dependencies"`
}

type jsonOp struct {
	Name      string  `json:"name"`
	Type      string  `json:"type"`
	Duration  string  `json:"duration"`
	Fluid     string  `json:"fluid,omitempty"`
	Diffusion float64 `json:"diffusion_cm2_per_s"`
}

type jsonEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// MarshalJSON encodes the graph in the stable on-disk format: the
// indented bytes encoding/json's MarshalIndent(jsonGraph, "", "  ")
// produced, written without reflection.
func (g *Graph) MarshalJSON() ([]byte, error) {
	// Sized for the ~150 bytes of an operation and ~60 of a dependency
	// with short names, so a typical graph is written without regrowing.
	w := jsonw.NewWriter(make([]byte, 0, 64+160*len(g.ops)+64*len(g.edges)))
	g.WriteJSON(&w)
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("assay: encoding: %w", err)
	}
	return w.Bytes(), nil
}

// WriteJSON writes the graph as the next value of w, in the jsonGraph
// format that Decode reads. It is the one definition of that encoding:
// MarshalJSON and the assay section of a solution document both use it.
func (g *Graph) WriteJSON(w *jsonw.Writer) {
	var dur [24]byte // holds any unit.Time's text (at most 22 bytes)
	w.Object()
	w.Key("name")
	w.String(g.name)
	w.Key("operations")
	if w.List(len(g.ops)) {
		for _, op := range g.ops {
			w.Object()
			w.Key("name")
			w.String(op.Name)
			w.Key("type")
			w.String(op.Type.String())
			w.Key("duration")
			w.StringBytes(op.Duration.Append(dur[:0]))
			if op.Output.Name != "" {
				w.Key("fluid")
				w.String(op.Output.Name)
			}
			w.Key("diffusion_cm2_per_s")
			w.Float(float64(op.Output.D))
			w.EndObject()
		}
		w.EndArray()
	}
	w.Key("dependencies")
	if w.List(len(g.edges)) {
		for _, e := range g.edges {
			w.Object()
			w.Key("from")
			w.String(g.ops[e.From].Name)
			w.Key("to")
			w.String(g.ops[e.To].Name)
			w.EndObject()
		}
		w.EndArray()
	}
	w.EndObject()
}

// Decode reads a graph from JSON, resolving dependency endpoints by
// operation name, and validates it.
func Decode(r io.Reader) (*Graph, error) {
	var jg jsonGraph
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jg); err != nil {
		return nil, fmt.Errorf("assay: decoding: %w", err)
	}
	b := NewBuilder(jg.Name)
	byName := make(map[string]OpID, len(jg.Operations))
	for _, jop := range jg.Operations {
		t, err := ParseOpType(jop.Type)
		if err != nil {
			return nil, fmt.Errorf("assay %q, operation %q: %w", jg.Name, jop.Name, err)
		}
		dur, err := unit.ParseTime(jop.Duration)
		if err != nil {
			return nil, fmt.Errorf("assay %q, operation %q: %w", jg.Name, jop.Name, err)
		}
		if _, dup := byName[jop.Name]; dup {
			return nil, fmt.Errorf("assay %q: duplicate operation name %q", jg.Name, jop.Name)
		}
		id := b.AddOp(jop.Name, t, dur, fluid.Fluid{Name: jop.Fluid, D: unit.Diffusion(jop.Diffusion)})
		byName[jop.Name] = id
	}
	for _, je := range jg.Deps {
		from, ok := byName[je.From]
		if !ok {
			return nil, fmt.Errorf("assay %q: dependency from unknown operation %q", jg.Name, je.From)
		}
		to, ok := byName[je.To]
		if !ok {
			return nil, fmt.Errorf("assay %q: dependency to unknown operation %q", jg.Name, je.To)
		}
		b.AddDep(from, to)
	}
	return b.Build()
}

// Encode writes the graph as indented JSON followed by a newline.
func Encode(w io.Writer, g *Graph) error {
	data, err := g.MarshalJSON()
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
