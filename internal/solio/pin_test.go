package solio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/chip"
	"repro/internal/core"
)

// exoticDetail needs every kind of escape the canonical encoding has:
// HTML-safe <, & and >, a quote, a control character, U+2028 and a byte
// that is not UTF-8.
const exoticDetail = "<&>\"\n\u2028\xff"

// pinnedDocs are the SHA-256s of Encode's bytes, captured from the
// reflection-based encoder (encoding/json with two-space indentation):
// any writer of the canonical document must reproduce them exactly, or
// every cache key, cached document and session fingerprint moves.
var pinnedDocs = map[string]string{
	"PCR/ours":        "1fc66a982f36ce4c56f4646b1bd336e11e4a80e1cede194468f0180dacf44dbc",
	"PCR/BA":          "7b584045a98f2a0c4e78a8a80b532a76412b67878faa584173152a78f1b3c607",
	"IVD/ours":        "a4f4ebb1ccf7739360c7477735266255fa54cbef67b8784b673d242ff2b0e8c9",
	"IVD/BA":          "40550dfdd452ee4dce40a9fbedb8c8be01988035c4b48c39d9fa66951cc2c15e",
	"CPA/ours":        "cad528329f3832a7d0a6d49e89aafd869fbad511af2ff96113c7ae1aee11c67d",
	"CPA/BA":          "c2285764d7db74129601289b3906a9a4d4012c493e047009b478b3ee7f0876ad",
	"Synthetic1/ours": "cc83e4c46e333077d2511f5ca923a5279aa877bb9229cab1a9457178307a8d48",
	"Synthetic1/BA":   "a50965272af45702de5efa1177d971eac6dd67e9eae7c2de03ac66ab9313279b",
	"Synthetic2/ours": "0ca6649b4956cb7695f2b825521e81892406a95feba7b487994a897a8d91e4c9",
	"Synthetic2/BA":   "01b27120c9944d8cfc5cbf9788e62ecb67e8687f472429e661b96dff3341b583",
	"Synthetic3/ours": "a36d6181ead84e15e39534cef300d57754c69bb18264e5739a9babca3e3a359f",
	"Synthetic3/BA":   "8eaa9e0f54bf4e9dcae8a78007bfd0781b842177c321890f4065371379443d41",
	"Synthetic4/ours": "229f827fedc1ad76630361b6ec514e9d2e139f134e6830fc668556da46b72495",
	"Synthetic4/BA":   "a77d0fb3d616324f204ed98ae3f62dac69090558ba805efa3f7c1a495e17a654",
	"degraded":        "3006bd662bfd6e9e7ced67f17874845dcea370832792febd8022c2e0b2abf673",
	"generated12":     "d88951034fdde2d345489a6152e22efae9839355b2280bd0dddb80409435ef94",
}

// pinnedSolutions builds every solution pinnedDocs names, with CPU time
// zeroed: the 7 Table I benchmarks under both algorithms at Imax 60,
// seed 1; PCR carrying a degradation with exoticDetail; and a generated
// 12-operation assay.
func pinnedSolutions(t *testing.T) map[string]*core.Solution {
	t.Helper()
	o := core.DefaultOptions()
	o.Place.Imax = 60
	sols := make(map[string]*core.Solution)
	for _, bm := range benchdata.All() {
		ours, err := core.Synthesize(bm.Graph, bm.Alloc, o)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := core.SynthesizeBaseline(bm.Graph, bm.Alloc, o)
		if err != nil {
			t.Fatal(err)
		}
		sols[bm.Name+"/ours"], sols[bm.Name+"/BA"] = ours, ba
	}
	deg := *sols["PCR/ours"]
	deg.Degradations = []core.Degradation{
		{Stage: "route", Event: "ripup"},
		{Stage: "session", Event: "reschedule", Detail: exoticDetail},
	}
	sols["degraded"] = &deg
	g := benchdata.GenerateSynthetic("gen12", 12, chip.Allocation{2, 1, 1, 1}, 12)
	gen, err := core.Synthesize(g, chip.MinimalAllocation(g), o)
	if err != nil {
		t.Fatal(err)
	}
	sols["generated12"] = gen
	for _, sol := range sols {
		sol.CPU = 0
	}
	return sols
}

func TestDocumentsPinned(t *testing.T) {
	for name, sol := range pinnedSolutions(t) {
		var buf bytes.Buffer
		if err := Encode(&buf, sol); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got := hex.EncodeToString(sum[:])
		if want := pinnedDocs[name]; got != want {
			t.Errorf("%s: document SHA-256 %s, pinned %s", name, got, want)
		}
	}
}
