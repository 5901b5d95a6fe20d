package server

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// histBounds are the latency histograms' bucket upper bounds in
// milliseconds; an implicit +Inf bucket follows. They straddle the range
// from sub-millisecond cache hits to multi-second synthetic-benchmark
// syntheses.
var histBounds = [...]float64{0.1, 0.25, 0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// histogram is a fixed-bucket latency histogram. The zero value is
// ready to use.
type histogram struct {
	mu     sync.Mutex
	counts [len(histBounds) + 1]int64
	count  int64
	sumMs  float64
}

// observe records one duration.
func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.counts[sort.SearchFloat64s(histBounds[:], ms)]++
	h.count++
	h.sumMs += ms
}

// histSnapshot is a consistent point-in-time copy of a histogram, with
// bucket counts already accumulated into the cumulative form Prometheus
// histograms use (bucket i counts observations <= histBounds[i]).
type histSnapshot struct {
	cumulative [len(histBounds) + 1]int64 // last entry is the +Inf bucket
	count      int64
	sumMs      float64
}

// snapshot copies the histogram state under the lock.
func (h *histogram) snapshot() histSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := histSnapshot{count: h.count, sumMs: h.sumMs}
	var run int64
	for i, c := range h.counts {
		run += c
		s.cumulative[i] = run
	}
	return s
}

// metrics holds the serving counters no other layer owns. The queue, the
// cache, the obs.Aggregate, the cluster and the SLO set keep their own;
// handlePromMetrics reads all of them at scrape time. The zero value is
// ready to use.
type metrics struct {
	jobsAccepted atomic.Int64
	jobsRejected atomic.Int64   // 429s from a full queue
	jobsShed     atomic.Int64   // 503s from the open circuit breaker
	peerServed   atomic.Int64   // peer-cache GETs served with a solution
	peerStored   atomic.Int64   // write-back PUTs accepted into the cache
	routes       obs.CounterSet // answered requests by route (route* consts)

	batchRequests atomic.Int64   // POST /v1/synthesize/batch calls
	batchMembers  atomic.Int64   // members across all batches
	batchDeduped  atomic.Int64   // members collapsed onto an earlier member's job
	workload      obs.CounterSet // requests by X-Workload-Profile label

	sessionsOpened atomic.Int64   // chip sessions opened (counter)
	sessionsLive   atomic.Int64   // sessions currently active (gauge)
	sessionCells   atomic.Int64   // dead cells accumulated across all sessions (gauge)
	sessionRepairs obs.CounterSet // fault-report repairs by outcome

	histSchedule histogram
	histPlace    histogram
	histRoute    histogram
	histTotal    histogram // synthesis wall-clock, cache misses only
	histRequest  histogram // POST /v1/synthesize handler latency
	histRepair   histogram // session fault-report repair latency
}

// WorkloadProfileHeader is the request header a load generator (see
// internal/loadgen) uses to tag traffic with its workload profile. The
// value becomes a counter label, nothing more: it is deliberately
// outside the cache key, so tagged and untagged requests share
// solutions.
const WorkloadProfileHeader = "X-Workload-Profile"

// maxWorkloadProfiles bounds the distinct workload-profile labels. The
// label is client-chosen, and every label is a series each later scrape
// renders, so profiles beyond the first maxWorkloadProfiles are counted
// together under otherWorkloadProfile.
const (
	maxWorkloadProfiles  = 32
	otherWorkloadProfile = "other"
)

// countWorkload attributes n requests to the inbound workload-profile
// label, if the client sent one. Labels are restricted to a safe
// charset so the Prometheus exposition can quote them verbatim.
func (s *Server) countWorkload(r *http.Request, n int) {
	p := workloadLabel(r.Header.Get(WorkloadProfileHeader))
	if p == "" {
		return
	}
	s.metrics.workload.BoundedCounter(p, maxWorkloadProfiles, otherWorkloadProfile).Add(int64(n))
}

// workloadLabel cleans a client-supplied profile name: its first 64
// bytes, [A-Za-z0-9_.-] only, anything else dropped. A clean name is
// returned as is, without allocating.
func workloadLabel(v string) string {
	if len(v) > 64 {
		v = v[:64]
	}
	return strings.Map(func(c rune) rune {
		if c == '_' || c == '.' || c == '-' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9') {
			return c
		}
		return -1
	}, v)
}
