package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestBoundedCounterCapsLabels: however many distinct labels race in,
// the set holds at most limit of them plus the overflow label, and no
// increment is lost.
func TestBoundedCounterCapsLabels(t *testing.T) {
	var s CounterSet
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				s.BoundedCounter(fmt.Sprintf("l%d-%d", g, i), 8, "other").Add(1)
			}
		}(g)
	}
	wg.Wait()
	snap := s.Snapshot()
	var sum int64
	for _, c := range snap {
		sum += c.Value
	}
	if len(snap) != 9 || sum != 100 || s.Value("other") != 92 {
		t.Fatalf("snapshot %v: %d labels summing to %d, want 9 summing to 100 with other=92", snap, len(snap), sum)
	}
	// A label admitted before the cap keeps its own counter.
	s.BoundedCounter(snap[0].Label, 8, "other").Add(1)
	if got := s.Value(snap[0].Label); got != snap[0].Value+1 {
		t.Fatalf("admitted label %s = %d, want %d", snap[0].Label, got, snap[0].Value+1)
	}
}
