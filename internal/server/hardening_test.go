package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/journal"
)

// TestJournalNormalLifecycle: a journaled request leaves no pending work
// behind — accepted on submit, terminal on completion, compacted away on
// the next open.
func TestJournalNormalLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, JournalPath: path})

	var sub submitResponse
	if code := postJSON(t, ts.URL, "/v1/synthesize", smallReq, &sub); code != http.StatusAccepted {
		t.Fatalf("POST: %d", code)
	}
	jr := waitTerminal(t, ts.URL, sub.JobID, 60*time.Second)
	if jr.Status != "done" {
		t.Fatalf("job %s: %s (%s)", sub.JobID, jr.Status, jr.Error)
	}
	// The terminal record is written by the OnTerminal observer, which can
	// trail the HTTP-visible status by a beat.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.jmu.Lock()
		outstanding := len(s.jobEntry) + len(s.earlyTerm)
		s.jmu.Unlock()
		if outstanding == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal bookkeeping still has %d outstanding entries", outstanding)
		}
		time.Sleep(5 * time.Millisecond)
	}

	jnl, pending, torn, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	jnl.Close()
	if torn != 0 || len(pending) != 0 {
		t.Fatalf("finished work left pending=%d torn=%d in the journal", len(pending), torn)
	}
}

// TestJournalReplayOnRestart is the crash-recovery acceptance criterion:
// a request accepted by a previous process but never finished is
// resubmitted on startup, runs to completion, and is closed out in the
// journal — zero lost accepted jobs, no duplicates.
func TestJournalReplayOnRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")

	// Simulate the crashed predecessor: an accepted record with no
	// terminal outcome.
	jnl, _, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := jnl.Accepted("req-crashed", json.RawMessage(smallReq))
	if err != nil {
		t.Fatal(err)
	}
	jnl.Close()

	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8, JournalPath: path})
	if replayed := scrapeProm(t, ts.URL)("mfserved_journal_replayed_total"); replayed != 1 {
		t.Fatalf("journal_replayed = %v, want 1", replayed)
	}

	// The replayed job carries the crashed request's label; wait for it to
	// finish via the cumulative done counter.
	deadline := time.Now().Add(60 * time.Second)
	for {
		metric := scrapeProm(t, ts.URL)
		done := metric(`mfserved_jobs_finished_total{status="done"}`)
		failed := metric(`mfserved_jobs_finished_total{status="failed"}`)
		if failed != 0 {
			t.Fatalf("replayed job failed")
		}
		if done == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replayed job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Re-submitting the same request now must be a cache hit: the replay
	// really synthesized (and cached) the crashed request.
	var again submitResponse
	if code := postJSON(t, ts.URL, "/v1/synthesize", smallReq, &again); code != http.StatusOK {
		t.Fatalf("post-replay POST: %d, want 200 cache hit", code)
	}
	if !again.Cached {
		t.Fatal("post-replay POST was not served from cache")
	}

	// The journal must close out the replayed entry (poll: the terminal
	// record trails job completion by the OnTerminal observer).
	deadline = time.Now().Add(5 * time.Second)
	for {
		jnl2, pending, _, err := journal.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		jnl2.Close()
		if len(pending) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed entry %s still pending: %+v", entry, pending)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJournalUnreplayableRecord: a pending record that no longer parses
// is closed out as unreplayable instead of wedging startup or staying
// pending forever.
func TestJournalUnreplayableRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jnl, _, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jnl.Accepted("req-bad", json.RawMessage(`{"bench":"NoSuchBench"}`)); err != nil {
		t.Fatal(err)
	}
	jnl.Close()

	newTestServer(t, Config{Workers: 1, QueueCap: 4, JournalPath: path})
	jnl2, pending, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	jnl2.Close()
	if len(pending) != 0 {
		t.Fatalf("unreplayable record still pending: %+v", pending)
	}
}

// TestBreakerShedsAfterSustainedOverflow: once enough consecutive
// submissions exhaust their retries against a full queue, the breaker
// opens and requests are shed with 503 without touching the queue.
func TestBreakerShedsAfterSustainedOverflow(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Workers: 1, QueueCap: 1,
		SubmitRetries:    -1, // no retries: each overflow is immediate
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
	})
	long := func(seed int) string {
		return fmt.Sprintf(`{"bench":"CPA","options":{"imax":100000,"seed":%d}}`, seed)
	}
	var running submitResponse
	if code := postJSON(t, ts.URL, "/v1/synthesize", long(1), &running); code != http.StatusAccepted {
		t.Fatalf("first POST: %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var jr jobResponse
		getJSON(t, ts.URL, "/v1/jobs/"+running.JobID, &jr)
		if jr.Status == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first job stuck in %q", jr.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var queued submitResponse
	if code := postJSON(t, ts.URL, "/v1/synthesize", long(2), &queued); code != http.StatusAccepted {
		t.Fatalf("second POST: %d", code)
	}

	// Two overflows reach the threshold...
	for i := 0; i < 2; i++ {
		if code := postJSON(t, ts.URL, "/v1/synthesize", long(3+i), nil); code != http.StatusTooManyRequests {
			t.Fatalf("overflow POST %d: status %d, want 429", i, code)
		}
	}
	// ...and the next request is shed without queue contact.
	resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", strings.NewReader(long(9)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed POST: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 shed without Retry-After header")
	}

	metric := scrapeProm(t, ts.URL)
	if shed := metric("mfserved_jobs_shed_total"); shed != 1 {
		t.Fatalf("jobs_shed = %v, want 1", shed)
	}
	if rejected := metric("mfserved_jobs_rejected_total"); rejected != 2 {
		t.Fatalf("jobs_rejected = %v, want 2", rejected)
	}
	if open := metric("mfserved_breaker_open"); open != 1 {
		t.Fatalf("breaker_open = %v, want 1", open)
	}
	if state := srv.brk.State(); state != "open" {
		t.Fatalf("breaker state = %q, want open", state)
	}

	postJSON(t, ts.URL, "/v1/jobs/"+queued.JobID+"/cancel", "", nil)
	postJSON(t, ts.URL, "/v1/jobs/"+running.JobID+"/cancel", "", nil)
}

// TestHandlerFaultInjection: an armed server.handler.error point turns
// exactly the chosen request into a 500 and leaves the next one alone.
func TestHandlerFaultInjection(t *testing.T) {
	plan := fault.NewPlan(11).Arm(fault.ServerHandlerError, fault.Once(0))
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4, Fault: plan})

	if code := postJSON(t, ts.URL, "/v1/synthesize", smallReq, nil); code != http.StatusInternalServerError {
		t.Fatalf("injected handler error: status %d, want 500", code)
	}
	var sub submitResponse
	if code := postJSON(t, ts.URL, "/v1/synthesize", smallReq, &sub); code != http.StatusAccepted {
		t.Fatalf("post-fault POST: status %d, want 202", code)
	}
	jr := waitTerminal(t, ts.URL, sub.JobID, 60*time.Second)
	if jr.Status != "done" {
		t.Fatalf("job after injected fault: %s (%s)", jr.Status, jr.Error)
	}
	if st := plan.Stats()[fault.ServerHandlerError]; st.Fires != 1 {
		t.Fatalf("handler error fired %d times, want 1", st.Fires)
	}
}
