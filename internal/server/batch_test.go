package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/loadgen"
)

// batchMemberJSON mirrors the wire shape of one batch member for tests.
type batchMemberJSON struct {
	Index       int    `json:"index"`
	JobID       string `json:"job_id"`
	Job         string `json:"job"`
	Status      string `json:"status"`
	Cached      bool   `json:"cached"`
	Key         string `json:"cache_key"`
	DuplicateOf *int   `json:"duplicate_of"`
	Error       string `json:"error"`
}

type batchResponseJSON struct {
	Requests int               `json:"requests"`
	Unique   int               `json:"unique"`
	Deduped  int               `json:"deduped"`
	Members  []batchMemberJSON `json:"members"`
}

func batchBody(members ...string) string {
	return `{"requests":[` + strings.Join(members, ",") + `]}`
}

// TestBatchDedupeCollapsesDuplicates proves the tentpole batch
// semantics: duplicate members never cost a second synthesis. Four
// members with two distinct cache keys yield exactly two jobs, the
// duplicates reference the canonical member's job, and on re-submit the
// whole batch is answered from the solution cache — with the cache's
// own hit counters attributing the collapse.
func TestBatchDedupeCollapsesDuplicates(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 16})
	other := `{"bench":"PCR","options":{"imax":60,"seed":8}}`

	var br batchResponseJSON
	if code := postJSON(t, ts.URL, "/v1/synthesize/batch",
		batchBody(smallReq, other, smallReq, smallReq), &br); code != http.StatusAccepted {
		t.Fatalf("batch submit: status %d", code)
	}
	if br.Requests != 4 || br.Unique != 2 || br.Deduped != 2 {
		t.Fatalf("batch accounting: %+v", br)
	}
	for _, i := range []int{2, 3} {
		m := br.Members[i]
		if m.DuplicateOf == nil || *m.DuplicateOf != 0 {
			t.Fatalf("member %d duplicate_of = %v, want 0", i, m.DuplicateOf)
		}
		if m.JobID != br.Members[0].JobID {
			t.Fatalf("member %d job %q, want canonical %q", i, m.JobID, br.Members[0].JobID)
		}
		if m.Key != br.Members[0].Key {
			t.Fatalf("member %d cache key %q != canonical %q", i, m.Key, br.Members[0].Key)
		}
	}
	if br.Members[0].Key == br.Members[1].Key {
		t.Fatal("distinct requests share a cache key")
	}
	// Exactly the two unique members became jobs.
	if got := s.metrics.jobsAccepted.Value(); got != 2 {
		t.Fatalf("jobs accepted = %d, want 2 (duplicates must not schedule work)", got)
	}
	if got := s.metrics.batchDeduped.Value(); got != 2 {
		t.Fatalf("batch_deduped = %d, want 2", got)
	}
	for _, i := range []int{0, 1} {
		if jr := waitTerminal(t, ts.URL, br.Members[i].JobID, 60*time.Second); jr.Status != "done" {
			t.Fatalf("member %d job: %+v", i, jr)
		}
	}

	// Re-submitting the same batch is pure cache attribution: every
	// unique member is served from solcache (cached=true, status done,
	// no new jobs), and the cache hit counter moves by exactly the
	// unique-member count.
	hitsBefore := s.cache.Stats().Hits
	var warm batchResponseJSON
	if code := postJSON(t, ts.URL, "/v1/synthesize/batch",
		batchBody(smallReq, other, smallReq, smallReq), &warm); code != http.StatusOK {
		t.Fatalf("warm batch: status %d", code)
	}
	for i, m := range warm.Members {
		if m.Status != "done" || !m.Cached {
			t.Fatalf("warm member %d not cache-served: %+v", i, m)
		}
	}
	if got := s.cache.Stats().Hits - hitsBefore; got != 2 {
		t.Fatalf("cache hits moved by %d, want 2 (one per unique member)", got)
	}
	if got := s.metrics.jobsAccepted.Value(); got != 2 {
		t.Fatalf("warm batch scheduled new jobs: accepted = %d, want still 2", got)
	}
}

// TestBatchValidatesBeforeScheduling: one invalid member rejects the
// whole batch side-effect free — nothing journaled, nothing queued.
func TestBatchValidatesBeforeScheduling(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	var out map[string]any
	code := postJSON(t, ts.URL, "/v1/synthesize/batch",
		batchBody(smallReq, `{"bench":"NoSuchBench"}`), &out)
	if code != http.StatusBadRequest {
		t.Fatalf("batch with invalid member: status %d, want 400", code)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "member 1") {
		t.Fatalf("error does not name the offending member: %v", out)
	}
	if got := s.metrics.jobsAccepted.Value(); got != 0 {
		t.Fatalf("invalid batch scheduled %d jobs", got)
	}
	if got := s.metrics.batchRequests.Value(); got != 0 {
		t.Fatalf("invalid batch counted as served: batch_requests = %d", got)
	}
}

// TestBatchLimits pins the empty and oversized rejections.
func TestBatchLimits(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	if code := postJSON(t, ts.URL, "/v1/synthesize/batch", `{"requests":[]}`, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", code)
	}
	members := make([]string, maxBatchMembers+1)
	for i := range members {
		members[i] = smallReq
	}
	if code := postJSON(t, ts.URL, "/v1/synthesize/batch", batchBody(members...), nil); code != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", code)
	}
}

// TestBatchOverflowRejectsPerMember: members beyond the queue bound
// report "rejected" individually while earlier members stay accepted —
// overflow degrades the batch, it does not fail it.
func TestBatchOverflowRejectsPerMember(t *testing.T) {
	t.Parallel()
	// One worker pinned by a slow job, a queue of 1, retries off: the
	// batch's first unique member takes the queue slot, the rest must
	// overflow deterministically.
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueCap: 1, SubmitRetries: -1, BreakerThreshold: -1,
	})
	var pin submitResponse
	if code := postJSON(t, ts.URL, "/v1/synthesize",
		`{"bench":"CPA","options":{"imax":20000,"seed":1}}`, &pin); code != http.StatusAccepted {
		t.Fatalf("pin submit: %d", code)
	}
	// Wait for the worker to pick the pin job up so the queue is empty.
	deadline := time.Now().Add(10 * time.Second)
	for s.q.Stats().Busy == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started the pin job")
		}
		time.Sleep(5 * time.Millisecond)
	}

	members := []string{
		`{"bench":"PCR","options":{"imax":60,"seed":101}}`,
		`{"bench":"PCR","options":{"imax":60,"seed":102}}`,
		`{"bench":"PCR","options":{"imax":60,"seed":103}}`,
	}
	var br batchResponseJSON
	if code := postJSON(t, ts.URL, "/v1/synthesize/batch", batchBody(members...), &br); code != http.StatusAccepted {
		t.Fatalf("batch: status %d, want 202 (partial acceptance)", code)
	}
	if br.Members[0].Status != "queued" {
		t.Fatalf("member 0: %+v, want queued", br.Members[0])
	}
	rejected := 0
	for _, m := range br.Members[1:] {
		if m.Status == "rejected" {
			rejected++
			if m.Error == "" {
				t.Fatalf("rejected member has no error: %+v", m)
			}
		}
	}
	if rejected != 2 {
		t.Fatalf("rejected %d members, want 2: %+v", rejected, br.Members)
	}
}

// TestBatchWorkloadProfileCounter: a tagged batch shows up under the
// per-profile counter in both the expvar map and the (otherwise gated)
// Prometheus family, and a hostile label is sanitized.
func TestBatchWorkloadProfileCounter(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/synthesize/batch",
		strings.NewReader(batchBody(smallReq, smallReq)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(WorkloadProfileHeader, `steady"} evil 1`)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var mj struct {
		Workload map[string]int64 `json:"workload_requests"`
	}
	if code := getJSON(t, ts.URL, "/metrics.json", &mj); code != http.StatusOK {
		t.Fatalf("metrics.json: %d", code)
	}
	if mj.Workload["steadyevil1"] != 2 {
		t.Fatalf("workload map = %v, want sanitized steadyevil1=2", mj.Workload)
	}
	promResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom := readAll(t, promResp)
	want := `mfserved_workload_requests_total{profile="steadyevil1"} 2`
	if !strings.Contains(prom, want) {
		t.Fatalf("prom exposition missing %q", want)
	}
}

// TestBatchHeaderConstantMatchesLoadgen pins the cross-package header
// contract: loadgen deliberately does not import this package, so the
// two constants must be asserted equal somewhere — here.
func TestBatchHeaderConstantMatchesLoadgen(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	// Exercise the real wire path: a loadgen Runner tags its traffic
	// and the server must attribute it.
	p, err := loadgen.ByName("steady")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := loadgen.Build(p, loadgen.Options{Seed: 3, Duration: time.Second, Rate: 4})
	if err != nil {
		t.Fatal(err)
	}
	sched.Items = sched.Items[:2] // two requests are plenty
	runner := &loadgen.Runner{Nodes: []string{ts.URL}, Timeout: 60 * time.Second}
	outcomes, err := runner.Run(t.Context(), sched)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if o.Status != "done" {
			t.Fatalf("outcome: %+v", o)
		}
	}
	var mj struct {
		Workload map[string]int64 `json:"workload_requests"`
	}
	getJSON(t, ts.URL, "/metrics.json", &mj)
	if mj.Workload["steady"] != 2 {
		t.Fatalf("workload attribution = %v, want steady=2 — header constants drifted", mj.Workload)
	}
}

// TestBatchForwardsMembersToRingOwners: in a 2-node cluster one batch
// fans out per member key — the member the sibling owns is forwarded
// (its job records the peer), the locally-owned member runs here.
func TestBatchForwardsMembersToRingOwners(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	local := bodyOwnedBy(t, nodes[0].cl, nodes[0].url)
	remote := bodyOwnedBy(t, nodes[0].cl, nodes[1].url)

	var br batchResponseJSON
	if code := postJSON(t, nodes[0].url, "/v1/synthesize/batch", batchBody(local, remote), &br); code != http.StatusAccepted {
		t.Fatalf("batch: status %d", code)
	}
	if br.Unique != 2 {
		t.Fatalf("unique = %d, want 2", br.Unique)
	}
	jrLocal := waitTerminal(t, nodes[0].url, br.Members[0].JobID, 60*time.Second)
	jrRemote := waitTerminal(t, nodes[0].url, br.Members[1].JobID, 60*time.Second)
	if jrLocal.Status != "done" || jrLocal.Peer != "" {
		t.Fatalf("local member: %+v, want done locally", jrLocal)
	}
	if jrRemote.Status != "done" {
		t.Fatalf("remote member: %+v", jrRemote)
	}
	if jrRemote.Peer != nodes[1].url {
		t.Fatalf("remote member peer = %q, want ring owner %s", jrRemote.Peer, nodes[1].url)
	}
}

// BenchmarkBatchSubmit measures the warm batch path: every member a
// cache hit, so the number is the handler's own dedupe+attribution
// cost, not synthesis.
func BenchmarkBatchSubmit(b *testing.B) {
	s, err := New(Config{Workers: 2, QueueCap: 64, Retain: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	body := batchBody(smallReq, smallReq, smallReq, smallReq,
		`{"bench":"PCR","options":{"imax":60,"seed":8}}`)
	// Warm both keys.
	resp, err := http.Post(ts.URL+"/v1/synthesize/batch", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	waitWarm := time.Now().Add(60 * time.Second)
	for s.cache.Stats().Entries < 2 {
		if time.Now().After(waitWarm) {
			b.Fatal("cache never warmed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/synthesize/batch", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// readAll drains a response body as a string.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
