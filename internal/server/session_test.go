package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/assay"
	"repro/internal/benchdata"
	"repro/internal/core"
	"repro/internal/route"
	"repro/internal/schedule"
	"repro/internal/session"
	"repro/internal/unit"
)

const sessionBody = `{"bench":"Synthetic3","options":{"imax":60}}`

// sessionSuffixCell synthesizes the session's benchmark with the same
// options the server resolves and picks a dead-cell candidate the repair
// ladder can route around: an interior cell of a path whose transport
// has not executed at the cut. The synthesis is deterministic, so the
// cell is valid against the server's pinned solution.
func sessionSuffixCell(t *testing.T) (route.Cell, unit.Time) {
	t.Helper()
	bm, err := benchdata.ByName("Synthetic3")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Place.Imax = 60
	sol, err := core.Synthesize(bm.Graph, bm.Alloc, opts)
	if err != nil {
		t.Fatal(err)
	}
	at := sol.Schedule.Makespan / 2
	executed := schedule.Executed(sol.Schedule, at)
	consumer := make(map[int]assay.OpID)
	for _, tr := range sol.Schedule.Transports {
		consumer[tr.ID] = tr.Consumer
	}
	for _, rt := range sol.Routing.Routes {
		if !executed[consumer[rt.Task.ID]] && len(rt.Path) >= 3 {
			return rt.Path[len(rt.Path)/2], at
		}
	}
	t.Skip("no suffix transport with an interior cell at this cut")
	return route.Cell{}, 0
}

func getText(t *testing.T, base, path string) string {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return string(data)
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	cell, at := sessionSuffixCell(t)

	// The default scrape must not know sessions exist.
	if scrape := getText(t, ts.URL, "/metrics"); strings.Contains(scrape, "mfserved_session") {
		t.Error("session families exposed before any session traffic")
	}

	var sr sessionResponse
	if code := postJSON(t, ts.URL, "/v1/sessions", sessionBody, &sr); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if sr.State != session.Active || sr.ID == "" || sr.Fingerprint == "" {
		t.Fatalf("create response: %+v", sr)
	}
	if sr.Cached {
		t.Error("first create claims a cache hit on an empty cache")
	}

	var snap session.Snapshot
	if code := getJSON(t, ts.URL, sr.Session, &snap); code != http.StatusOK {
		t.Fatalf("get: status %d", code)
	}
	if snap.Fingerprint != sr.Fingerprint {
		t.Errorf("snapshot fingerprint drifted: %s != %s", snap.Fingerprint, sr.Fingerprint)
	}

	var rr repairResponse
	fr := fmt.Sprintf(`{"at":%d,"cells":[{"x":%d,"y":%d}]}`, at, cell.X, cell.Y)
	if code := postJSON(t, ts.URL, sr.Faults, fr, &rr); code != http.StatusOK {
		t.Fatalf("fault: status %d", code)
	}
	if rr.Record.Outcome != session.OutcomeRepaired || rr.Record.Rung != session.RungReroute {
		t.Errorf("repair = %s/%s, want %s/%s",
			rr.Record.Rung, rr.Record.Outcome, session.RungReroute, session.OutcomeRepaired)
	}
	if rr.Snapshot.CellsLost != 1 || rr.Snapshot.Fingerprint == sr.Fingerprint {
		t.Errorf("post-repair snapshot: %+v", rr.Snapshot)
	}

	// Session traffic unlocks the gated metric families.
	scrape := getText(t, ts.URL, "/metrics")
	for _, want := range []string{
		"mfserved_sessions_opened_total 1",
		"mfserved_sessions_open 1",
		`mfserved_session_repairs_total{outcome="repaired"} 1`,
		"mfserved_session_cells_lost 1",
		"mfserved_session_repair_latency_seconds_count 1",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape is missing %q", want)
		}
	}
	// And stays structurally valid Prometheus exposition.
	parseProm(t, scrape)

	if code := postJSON(t, ts.URL, sr.Session+"/close", "", &snap); code != http.StatusOK {
		t.Fatalf("close: status %d", code)
	}
	if snap.State != session.Closed {
		t.Errorf("state after close = %s", snap.State)
	}
	if code := postJSON(t, ts.URL, sr.Faults, fr, nil); code != http.StatusConflict {
		t.Errorf("fault on closed session: status %d, want 409", code)
	}

	// A second session over the same assay pins the cached solution —
	// byte-identical, so the fingerprints agree.
	var sr2 sessionResponse
	if code := postJSON(t, ts.URL, "/v1/sessions", sessionBody, &sr2); code != http.StatusCreated {
		t.Fatalf("second create: status %d", code)
	}
	if !sr2.Cached {
		t.Error("second create missed the solution cache")
	}
	if sr2.Fingerprint != sr.Fingerprint {
		t.Errorf("cache-served session fingerprint differs: %s != %s", sr2.Fingerprint, sr.Fingerprint)
	}
}

func TestSessionValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8})

	if code := postJSON(t, ts.URL, "/v1/sessions", `{"bench":"PCR","baseline":true}`, nil); code != http.StatusBadRequest {
		t.Errorf("baseline session: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL, "/v1/sessions", `{"bench":"PCR","nope":1}`, nil); code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL, "/v1/sessions/s-missing/faults", `{"at":0,"cells":[{"x":1,"y":1}]}`, nil); code != http.StatusNotFound {
		t.Errorf("fault on unknown session: status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL, "/v1/sessions/s-missing", nil); code != http.StatusNotFound {
		t.Errorf("get unknown session: status %d, want 404", code)
	}

	var sr sessionResponse
	if code := postJSON(t, ts.URL, "/v1/sessions", sessionBody, &sr); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if code := postJSON(t, ts.URL, sr.Faults, `{"at":0}`, nil); code != http.StatusBadRequest {
		t.Errorf("empty fault report: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL, sr.Faults, `{"at":0,"cells":[{"x":-3,"y":0}]}`, nil); code != http.StatusBadRequest {
		t.Errorf("out-of-plane cell: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL, sr.Faults, `{"at":0,"bogus":true}`, nil); code != http.StatusBadRequest {
		t.Errorf("unknown fault field: status %d, want 400", code)
	}
	// Rejected reports leave the session untouched.
	var snap session.Snapshot
	getJSON(t, ts.URL, sr.Session, &snap)
	if snap.State != session.Active || snap.CellsLost != 0 {
		t.Errorf("rejected reports changed state: %+v", snap)
	}
}

// TestSessionJournalReplay: a process that dies with a live session —
// create and fault reports journaled, nothing marked terminal — replays
// on the next start into byte-identical session state.
func TestSessionJournalReplay(t *testing.T) {
	jnlPath := filepath.Join(t.TempDir(), "journal.jsonl")
	cell, at := sessionSuffixCell(t)

	s1, err := New(Config{Workers: 1, QueueCap: 8, JournalPath: jnlPath})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s1.Handler())
	var sr sessionResponse
	if code := postJSON(t, ts.URL, "/v1/sessions", sessionBody, &sr); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var rr repairResponse
	fr := fmt.Sprintf(`{"at":%d,"cells":[{"x":%d,"y":%d}]}`, at, cell.X, cell.Y)
	if code := postJSON(t, ts.URL, sr.Faults, fr, &rr); code != http.StatusOK {
		t.Fatalf("fault: status %d", code)
	}
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	_ = s1.Shutdown(ctx)
	cancel()

	// The restart replays the create and the fault report synchronously.
	s2, err := New(Config{Workers: 1, QueueCap: 8, JournalPath: jnlPath})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	}()
	if got := s2.replayed.Load(); got < 2 {
		t.Errorf("replayed = %d, want >= 2 (create + fault)", got)
	}
	st := s2.session(sr.ID)
	if st == nil {
		t.Fatalf("session %s not restored by replay", sr.ID)
	}
	snap := st.sess.Snapshot()
	if snap.Fingerprint != rr.Snapshot.Fingerprint {
		t.Errorf("replayed fingerprint %s != pre-crash %s", snap.Fingerprint, rr.Snapshot.Fingerprint)
	}
	if snap.State != session.Active || snap.Cut != rr.Snapshot.Cut || snap.CellsLost != rr.Snapshot.CellsLost {
		t.Errorf("replayed state %+v != pre-crash %+v", snap, rr.Snapshot)
	}
	if len(snap.Repairs) != 1 || snap.Repairs[0].Fingerprint != rr.Record.Fingerprint {
		t.Errorf("replayed repair log %+v != pre-crash record %+v", snap.Repairs, rr.Record)
	}
}

// TestSessionClusterRouting: session traffic reaches its session from
// any node — the holder serves it, every other node proxies to the ring
// owner.
func TestSessionClusterRouting(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	cell, at := sessionSuffixCell(t)

	var sr sessionResponse
	if code := postJSON(t, nodes[0].url, "/v1/sessions", sessionBody, &sr); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	for i, nd := range nodes {
		var snap session.Snapshot
		if code := getJSON(t, nd.url, "/v1/sessions/"+sr.ID, &snap); code != http.StatusOK {
			t.Fatalf("node %d get: status %d", i, code)
		}
		if snap.ID != sr.ID || snap.State != session.Active {
			t.Errorf("node %d snapshot: %+v", i, snap)
		}
	}
	// Fault-report via the node that does NOT hold the session still
	// repairs it (exactly one node holds it; try both, expect one 200
	// each since repairs are monotonic in At).
	var rr repairResponse
	fr := fmt.Sprintf(`{"at":%d,"cells":[{"x":%d,"y":%d}]}`, at, cell.X, cell.Y)
	if code := postJSON(t, nodes[1].url, "/v1/sessions/"+sr.ID+"/faults", fr, &rr); code != http.StatusOK {
		t.Fatalf("fault via node 1: status %d", code)
	}
	if rr.Record.Outcome != session.OutcomeRepaired {
		t.Errorf("outcome = %s, want %s", rr.Record.Outcome, session.OutcomeRepaired)
	}
	var snap session.Snapshot
	if code := postJSON(t, nodes[0].url, "/v1/sessions/"+sr.ID+"/close", "", &snap); code != http.StatusOK {
		t.Fatalf("close via node 0: status %d", code)
	}
	if snap.State != session.Closed {
		t.Errorf("state after close = %s", snap.State)
	}
}

// TestSessionEvictionBounded: terminal sessions beyond Config.Retain are
// evicted oldest first, so create-and-close cycles, run from two clients
// at once, leave a bounded session map and a live heap that does not
// grow with the number of cycles. An evicted ID answers 404 like an
// unknown one; open sessions are never evicted.
func TestSessionEvictionBounded(t *testing.T) {
	const retain = 16
	s, err := New(Config{Workers: 2, QueueCap: 8, Retain: retain})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	do := func(method, path, body string) (int, string) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	// cycle creates a session and, unless keep, closes it. It reports
	// failures with t.Error, so clients may run it concurrently.
	cycle := func(keep bool) string {
		code, body := do(http.MethodPost, "/v1/sessions", sessionBody)
		var sr sessionResponse
		if code != http.StatusCreated || json.Unmarshal([]byte(body), &sr) != nil {
			t.Errorf("create: %d: %s", code, body)
			return ""
		}
		if !keep {
			if code, body := do(http.MethodPost, "/v1/sessions/"+sr.ID+"/close", ""); code != http.StatusOK {
				t.Errorf("close %s: %d: %s", sr.ID, code, body)
			}
		}
		return sr.ID
	}
	cycles := func(n int) {
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n/2; i++ {
					cycle(false)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	open := []string{cycle(true), cycle(true)}
	firstClosed := cycle(false)
	cycles(2 * retain)
	before := liveHeap()
	const more = 200
	cycles(more)
	grown := liveHeap() - before

	s.smu.Lock()
	held := len(s.sessions)
	s.smu.Unlock()
	if held > retain+len(open) {
		t.Fatalf("%d sessions held after %d cycles, want at most %d closed + %d open",
			held, 1+2*retain+more, retain, len(open))
	}
	// Without eviction each closed Synthetic3 session stays in the map,
	// and these 200 cycles grew the live heap by about 7 MiB.
	if grown > 1<<20 {
		t.Fatalf("live heap grew %d KiB over %d create-and-close cycles", grown>>10, more)
	}
	if code, body := do(http.MethodGet, "/v1/sessions/"+firstClosed, ""); code != http.StatusNotFound {
		t.Fatalf("evicted session %s: %d: %s, want 404", firstClosed, code, body)
	}
	for _, id := range open {
		if code, body := do(http.MethodGet, "/v1/sessions/"+id, ""); code != http.StatusOK {
			t.Fatalf("open session %s: %d: %s", id, code, body)
		}
	}
}
