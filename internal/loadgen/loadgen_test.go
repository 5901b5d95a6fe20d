package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/server"
)

// TestScheduleDeterministic pins the package's core promise: the same
// (profile, Options) produce byte-identical schedules, and the seed
// actually matters.
func TestScheduleDeterministic(t *testing.T) {
	t.Parallel()
	for _, p := range Profiles() {
		opts := Options{Seed: 42, Duration: 10 * time.Second}
		a, err := Build(p, opts)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		b, err := Build(p, opts)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		ab, err := a.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab, bb) {
			t.Errorf("%s: same seed produced different schedule bytes", p.Name)
		}
		c, err := Build(p, Options{Seed: 43, Duration: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		cb, _ := c.Bytes()
		if bytes.Equal(ab, cb) {
			t.Errorf("%s: different seeds produced identical schedules", p.Name)
		}
	}
}

// TestScheduleShape checks the structural invariants each profile
// promises: monotone open-loop offsets inside the horizon, zero
// offsets in closed loop, bursty arrivals compressed into the duty
// window, heavytail drawing from the corpus, and every body being a
// decodable synthesis request.
func TestScheduleShape(t *testing.T) {
	t.Parallel()
	for _, p := range Profiles() {
		s, err := Build(p, Options{Seed: 7, Duration: 10 * time.Second})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if len(s.Items) == 0 {
			t.Fatalf("%s: empty schedule", p.Name)
		}
		var last time.Duration
		for i, it := range s.Items {
			if it.Index != i {
				t.Fatalf("%s: item %d has index %d", p.Name, i, it.Index)
			}
			if !p.OpenLoop && it.At != 0 {
				t.Fatalf("%s: closed-loop item %d has offset %v", p.Name, i, it.At)
			}
			if p.OpenLoop {
				if it.At < last {
					t.Fatalf("%s: offsets not monotone at %d (%v < %v)", p.Name, i, it.At, last)
				}
				last = it.At
				if it.At >= 10*time.Second {
					t.Fatalf("%s: item %d beyond horizon: %v", p.Name, i, it.At)
				}
				if p.BurstPeriod > 0 {
					inPeriod := it.At % p.BurstPeriod
					window := time.Duration(float64(p.BurstPeriod) * p.BurstDuty)
					if inPeriod > window {
						t.Fatalf("%s: item %d at %v lands outside the duty window", p.Name, i, it.At)
					}
				}
			}
			var req struct {
				Bench   string          `json:"bench"`
				Assay   json.RawMessage `json:"assay"`
				Options struct {
					Imax int    `json:"imax"`
					Seed uint64 `json:"seed"`
				} `json:"options"`
			}
			dec := json.NewDecoder(bytes.NewReader(it.Body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				t.Fatalf("%s: item %d body: %v", p.Name, i, err)
			}
			if req.Bench == "" && len(req.Assay) == 0 {
				t.Fatalf("%s: item %d names neither bench nor assay", p.Name, i)
			}
			if req.Options.Imax != 60 || req.Options.Seed < 1 {
				t.Fatalf("%s: item %d options: %+v", p.Name, i, req.Options)
			}
		}
	}

	// heavytail specifically must mix corpus assays into the universe…
	ht, err := ByName("heavytail")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(ht, Options{Seed: 7, Duration: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var corpus, hot int
	for _, it := range s.Items {
		if strings.HasPrefix(it.Source, "corpus:") {
			corpus++
		}
		if strings.HasPrefix(it.Source, "bench:PCR#") {
			hot++
		}
	}
	if corpus == 0 {
		t.Fatal("heavytail schedule never drew a corpus assay")
	}
	// …while staying head-heavy: the rank-0 benchmark must dominate any
	// single corpus entry under the Zipf skew.
	if hot <= corpus/ht.CorpusSize {
		t.Fatalf("heavytail skew looks uniform: hot=%d corpus(total)=%d", hot, corpus)
	}
}

// TestRunReportStable runs a small steady schedule against a real
// in-process server and checks the report's invariants — the fields CI
// gates on must be internally consistent regardless of timing.
func TestRunReportStable(t *testing.T) {
	t.Parallel()
	srv, err := server.New(server.Config{Workers: 2, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	p, err := ByName("steady")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Build(p, Options{Seed: 5, Duration: time.Second, Rate: 8})
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Nodes: []string{ts.URL}, Timeout: 120 * time.Second}
	start := time.Now()
	outcomes, err := runner.Run(context.Background(), sched)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != len(sched.Items) {
		t.Fatalf("outcomes %d, scheduled %d", len(outcomes), len(sched.Items))
	}
	for i, o := range outcomes {
		if o.Index != i {
			t.Fatalf("outcomes not in schedule order at %d: %+v", i, o)
		}
		if o.Status != "done" {
			t.Fatalf("outcome %d: %+v", i, o)
		}
		if o.LatencyMs <= 0 {
			t.Fatalf("outcome %d has no latency", i)
		}
	}

	rep := Summarize(sched, outcomes, time.Since(start))
	if rep.Completed != len(outcomes) || rep.Errors != 0 || rep.Failed != 0 {
		t.Fatalf("report counts: %+v", rep)
	}
	if rep.Completed != rep.Scheduled {
		t.Fatalf("completed %d != scheduled %d", rep.Completed, rep.Scheduled)
	}
	l := rep.LatencyMs
	if !(l.P50 > 0 && l.P50 <= l.P95 && l.P95 <= l.P99 && l.P99 <= l.Max) {
		t.Fatalf("percentiles not monotone: %+v", l)
	}
	if rep.CacheHitRate < 0 || rep.CacheHitRate > 1 || rep.ErrorRate != 0 || rep.ShedRate != 0 {
		t.Fatalf("rates out of range: %+v", rep)
	}
	if rep.ThroughputPerS <= 0 {
		t.Fatalf("throughput %v", rep.ThroughputPerS)
	}
	// The steady mix repeats keys (SeedVariants bounds the universe),
	// so a full run must produce at least one cache hit.
	if rep.CacheHits == 0 {
		t.Fatal("steady run produced zero cache hits — mix no longer repeats keys")
	}
}

// TestSessionScheduleShape pins the session-profile extras: every item
// carries exactly SessionFaults seeded reports with monotone instants
// and in-plane cells, non-session profiles carry none (so their
// schedule bytes are untouched), and session schedules refuse batching.
func TestSessionScheduleShape(t *testing.T) {
	t.Parallel()
	for _, p := range Profiles() {
		s, err := Build(p, Options{Seed: 11, Duration: 2 * time.Second})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for i, it := range s.Items {
			if len(it.Faults) != p.SessionFaults {
				t.Fatalf("%s: item %d has %d fault reports, want %d", p.Name, i, len(it.Faults), p.SessionFaults)
			}
			lastAt := -1
			for j, fr := range it.Faults {
				var rep struct {
					At    int `json:"at"`
					Cells []struct {
						X int `json:"x"`
						Y int `json:"y"`
					} `json:"cells"`
				}
				dec := json.NewDecoder(bytes.NewReader(fr))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&rep); err != nil {
					t.Fatalf("%s: item %d fault %d: %v", p.Name, i, j, err)
				}
				if rep.At < lastAt {
					t.Fatalf("%s: item %d fault %d at %d precedes %d", p.Name, i, j, rep.At, lastAt)
				}
				lastAt = rep.At
				for _, c := range rep.Cells {
					if c.X < 0 || c.Y < 0 || c.X >= faultPlaneBound || c.Y >= faultPlaneBound {
						t.Fatalf("%s: item %d fault %d cell (%d,%d) outside [0,%d)", p.Name, i, j, c.X, c.Y, faultPlaneBound)
					}
				}
			}
		}
		if p.SessionFaults > 0 {
			if _, err := Build(p, Options{Seed: 11, Duration: 2 * time.Second, Batch: 4}); err == nil {
				t.Fatalf("%s: batched session schedule built without error", p.Name)
			}
		}
	}
}

// TestRunSessionProfile drives the session profile against a real
// in-process server: every session must open, take its repairs, and the
// report must classify each one.
func TestRunSessionProfile(t *testing.T) {
	t.Parallel()
	srv, err := server.New(server.Config{Workers: 2, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	p, err := ByName("session")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Build(p, Options{Seed: 3, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Nodes: []string{ts.URL}, Timeout: 120 * time.Second}
	start := time.Now()
	outcomes, err := runner.Run(context.Background(), sched)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outcomes {
		if o.Status != "done" || !o.Session {
			t.Fatalf("outcome %d: %+v", i, o)
		}
		if o.Repairs < 1 || o.Repaired+o.DegradedRepairs+btoi(o.Abandoned) != o.Repairs {
			t.Fatalf("outcome %d repair accounting: %+v", i, o)
		}
		if !o.Abandoned && o.Repairs != p.SessionFaults {
			t.Fatalf("outcome %d: surviving session took %d reports, want %d", i, o.Repairs, p.SessionFaults)
		}
	}
	rep := Summarize(sched, outcomes, time.Since(start))
	if rep.Sessions != rep.Scheduled || rep.Errors != 0 || rep.Failed != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Repaired+rep.DegradedRepairs+rep.Abandoned != rep.Repairs {
		t.Fatalf("report repair accounting: %+v", rep)
	}
	if rep.Repairs == 0 {
		t.Fatal("session run accepted zero repairs")
	}
}

// TestFailedRepairClosesSession arms session.repair.fail on every report:
// each session then fails on its first report, and the runner must still
// close it, so the server ends the run with no session open.
func TestFailedRepairClosesSession(t *testing.T) {
	t.Parallel()
	plan := fault.NewPlan(1).Arm(fault.SessionRepairFail, fault.Policy{Prob: 1})
	srv, err := server.New(server.Config{Workers: 2, QueueCap: 64, Fault: plan})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	p, err := ByName("session")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Build(p, Options{Seed: 3, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Nodes: []string{ts.URL}, Timeout: 120 * time.Second}
	outcomes, err := runner.Run(context.Background(), sched)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outcomes {
		if o.Status != "failed" || !o.Session {
			t.Fatalf("outcome %d: %+v", i, o)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Open *int `json:"sessions_open"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.Open == nil {
		t.Fatal("/metrics.json has no sessions_open")
	}
	if *vars.Open != 0 {
		t.Fatalf("sessions_open = %d after %d failed sessions, want 0", *vars.Open, len(outcomes))
	}
}

// TestClassifySubmit pins how a submit status code maps onto an outcome.
func TestClassifySubmit(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		code int
		want string
	}{
		{http.StatusOK, ""},
		{http.StatusAccepted, ""},
		{http.StatusTooManyRequests, "rejected"},
		{http.StatusServiceUnavailable, "shed"},
		{http.StatusInternalServerError, "failed"},
		{http.StatusBadGateway, "failed"},
		{http.StatusGatewayTimeout, "failed"},
		{http.StatusBadRequest, "error"},
		{http.StatusNotFound, "error"},
		{http.StatusCreated, "error"},
	} {
		if got := classifySubmit(tc.code); got != tc.want {
			t.Errorf("classifySubmit(%d) = %q, want %q", tc.code, got, tc.want)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestRunBatchMode ships the same schedule through the batch endpoint
// and expects identical member-level outcomes.
func TestRunBatchMode(t *testing.T) {
	t.Parallel()
	srv, err := server.New(server.Config{Workers: 2, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	p, err := ByName("heavytail")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Build(p, Options{Seed: 5, Duration: time.Second, Rate: 8, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Nodes: []string{ts.URL}, Timeout: 120 * time.Second}
	outcomes, err := runner.Run(context.Background(), sched)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != len(sched.Items) {
		t.Fatalf("outcomes %d, scheduled %d", len(outcomes), len(sched.Items))
	}
	for i, o := range outcomes {
		if o.Status != "done" {
			t.Fatalf("outcome %d: %+v", i, o)
		}
	}
}

// TestPercentileNearestRank pins the percentile method against hand
// figures so report numbers stay comparable across versions.
func TestPercentileNearestRank(t *testing.T) {
	t.Parallel()
	pop := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{50, 5}, {95, 10}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(pop, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty population p50 = %v, want 0", got)
	}
}

// BenchmarkScheduleBuild measures schedule materialization — the cost
// of starting a load run, dominated by corpus assay generation.
func BenchmarkScheduleBuild(b *testing.B) {
	p, err := ByName("heavytail")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(p, Options{Seed: uint64(i), Duration: 10 * time.Second}); err != nil {
			b.Fatal(err)
		}
	}
}
