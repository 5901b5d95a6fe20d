package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// counterset.go: a small labeled-counter registry for metric families
// whose label set is only known at runtime — the cluster layer's
// per-peer forward/hit/miss/probe counts, where peers join and leave
// with membership changes, and the server's answered requests by route,
// requests by client-declared workload profile and session repairs by
// outcome. The Aggregate's fixed atomic fields cover everything with a
// static name; CounterSet covers the rest without dragging in a metrics
// dependency. /metrics reads both at scrape time.

// CounterSet is a concurrency-safe map from label to monotonic counter.
// The zero value is ready to use. Counters are never removed: a peer
// that left the membership keeps its totals, which is exactly what
// Prometheus counter semantics require (a counter that resets or
// vanishes breaks rate()).
type CounterSet struct {
	mu sync.Mutex
	m  map[string]*atomic.Int64
}

// Counter returns the counter for label, creating it at zero on first
// use. The returned *atomic.Int64 is stable for the set's lifetime, so
// hot paths can look it up once and Add without further locking.
func (s *CounterSet) Counter(label string) *atomic.Int64 {
	return s.BoundedCounter(label, 0, "")
}

// BoundedCounter is Counter for labels a client chooses: once the set
// holds limit labels, an unseen label gets overflow's counter instead of
// a new one, so the set never exceeds limit+1 labels however many
// distinct values arrive. A limit of 0 means no bound.
func (s *CounterSet) BoundedCounter(label string, limit int, overflow string) *atomic.Int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]*atomic.Int64)
	}
	c, ok := s.m[label]
	if !ok && limit > 0 && len(s.m) >= limit {
		label = overflow
		c, ok = s.m[label]
	}
	if !ok {
		c = new(atomic.Int64)
		s.m[label] = c
	}
	return c
}

// Add increments label's counter by delta, creating it on first use.
func (s *CounterSet) Add(label string, delta int64) {
	s.Counter(label).Add(delta)
}

// Value returns label's current total (zero for an unknown label,
// without creating it).
func (s *CounterSet) Value(label string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.m[label]; ok {
		return c.Load()
	}
	return 0
}

// LabeledCount is one (label, total) pair of a snapshot.
type LabeledCount struct {
	Label string
	Value int64
}

// Snapshot returns every counter sorted by label, so expositions and
// test assertions are deterministic.
func (s *CounterSet) Snapshot() []LabeledCount {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]LabeledCount, 0, len(s.m))
	for label, c := range s.m {
		out = append(out, LabeledCount{Label: label, Value: c.Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}
