package schedule

import (
	"testing"

	"repro/internal/benchdata"
)

var scheduleSink *Result

// BenchmarkScheduleAlgorithm1 is the paper's Algorithm 1 (storage-aware
// list scheduling with channel caching) on Synthetic4, the largest
// Table I benchmark, with the default options.
func BenchmarkScheduleAlgorithm1(b *testing.B) {
	bm, err := benchdata.ByName("Synthetic4")
	if err != nil {
		b.Fatal(err)
	}
	cs := bm.Alloc.Instantiate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if scheduleSink, err = Schedule(bm.Graph, cs, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
