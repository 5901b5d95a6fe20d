package assay_test

import (
	"testing"

	"repro/internal/benchdata"
)

var marshalSink []byte

// BenchmarkAssayMarshal is the canonical encoding of Synthetic4's assay:
// the first part of an inline request's cache key and the assay section
// of every solution document.
func BenchmarkAssayMarshal(b *testing.B) {
	bm, err := benchdata.ByName("Synthetic4")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if marshalSink, err = bm.Graph.MarshalJSON(); err != nil {
			b.Fatal(err)
		}
	}
}
