package jsonw

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// reference is what encoding/json's Encoder writes for v with
// SetIndent("", "  "), without Encode's trailing newline.
func reference(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

func TestFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.99e-7, 1e-7, 5e-8, 1.5e-10,
		1e-100, 1e20, 1e21, 1.5e21, 1e300, -1e-7, -2e22, 0.1, 0.95, 1e-5,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.125, 3.0e-6,
	} {
		w := NewWriter(nil)
		w.Float(f)
		if want := reference(t, f); !bytes.Equal(w.Bytes(), want) || w.Err() != nil {
			t.Errorf("Float(%v) = %q (err %v), encoding/json %q", f, w.Bytes(), w.Err(), want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		w := NewWriter(nil)
		w.Float(f)
		if w.Err() == nil || len(w.Bytes()) != 0 {
			t.Errorf("Float(%v) wrote %q with err %v, want an error and nothing written", f, w.Bytes(), w.Err())
		}
	}
}

func TestStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", "with space", `quote"`, `back\slash`, "<&>", "a&b", "<", ">", "tab\t", "nl\n",
		"\x00\x1f\x7f", "café", "\u2028\u2029", "\xff", "a\xc3", "emoji \U0001F600",
	} {
		w := NewWriter(nil)
		w.String(s)
		if want := reference(t, s); !bytes.Equal(w.Bytes(), want) {
			t.Errorf("String(%q) = %s, encoding/json %s", s, w.Bytes(), want)
		}
	}
}

// TestNestingMatchesEncodingJSON covers indentation, separators, nil and
// empty slices, empty objects and values appended after existing bytes.
func TestNestingMatchesEncodingJSON(t *testing.T) {
	type inner struct {
		A []int            `json:"a"`
		B []int            `json:"b"`
		C map[string]int   `json:"c"`
		D [][2]int         `json:"d"`
		E []map[string]any `json:"e"`
	}
	v := struct {
		N  int     `json:"n"`
		X  float64 `json:"x"`
		OK bool    `json:"ok"`
		In inner   `json:"in"`
		S  string  `json:"s"`
	}{N: -3, X: 2.5e-9, OK: true, In: inner{A: nil, B: []int{}, C: map[string]int{},
		D: [][2]int{{1, 2}, {3, 4}}, E: []map[string]any{{}}}, S: "s"}

	w := NewWriter([]byte("prefix:"))
	w.Object()
	w.Key("n")
	w.Int(-3)
	w.Key("x")
	w.Float(2.5e-9)
	w.Key("ok")
	w.Bool(true)
	w.Key("in")
	w.Object()
	w.Key("a")
	w.List(0)
	w.Key("b")
	w.Array()
	w.EndArray()
	w.Key("c")
	w.Object()
	w.EndObject()
	w.Key("d")
	if w.List(2) {
		for _, p := range [][2]int{{1, 2}, {3, 4}} {
			w.Array()
			w.Int(int64(p[0]))
			w.Int(int64(p[1]))
			w.EndArray()
		}
		w.EndArray()
	}
	w.Key("e")
	w.Array()
	w.Object()
	w.EndObject()
	w.EndArray()
	w.EndObject()
	w.Key("s")
	w.String("s")
	w.EndObject()

	want := append([]byte("prefix:"), reference(t, v)...)
	if !bytes.Equal(w.Bytes(), want) {
		t.Errorf("got:\n%s\nwant:\n%s", w.Bytes(), want)
	}

	u := NewWriter(nil)
	u.Uint(math.MaxUint64)
	if want := reference(t, uint64(math.MaxUint64)); !bytes.Equal(u.Bytes(), want) {
		t.Errorf("Uint = %s, want %s", u.Bytes(), want)
	}
}

// TestDeepNesting covers lines deeper than the indent constant.
func TestDeepNesting(t *testing.T) {
	var v any = 1
	w := NewWriter(nil)
	for i := 0; i < 20; i++ {
		v = []any{v}
		w.Array()
	}
	w.Int(1)
	for i := 0; i < 20; i++ {
		w.EndArray()
	}
	if want := reference(t, v); !bytes.Equal(w.Bytes(), want) {
		t.Errorf("got:\n%s\nwant:\n%s", w.Bytes(), want)
	}
}
