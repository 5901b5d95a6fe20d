package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/route"
	"repro/internal/schedule"
	"repro/internal/session"
	"repro/internal/unit"
)

func mustResolve(tb testing.TB, body string) *request {
	tb.Helper()
	var sreq SynthesizeRequest
	if err := json.Unmarshal([]byte(body), &sreq); err != nil {
		tb.Fatal(err)
	}
	req, err := resolve(&sreq)
	if err != nil {
		tb.Fatal(err)
	}
	return req
}

// TestSessionBaseSharedAcrossOpens: concurrent opens on one cached entry
// build its session base once and share it — every session pins the one
// shallow copy of the entry's solution that the base carries — and each
// open's print and single points are what session.New gives on the same
// solution. A request that differs only in the unkeyed route_workers
// resolves to the same entry and shares the same base. Run under -race,
// the opens race on the base's first build.
func TestSessionBaseSharedAcrossOpens(t *testing.T) {
	s := newAllocServer(t)
	const body = `{"bench":"Synthetic1","options":{"imax":60}}`
	const workersBody = `{"bench":"Synthetic1","options":{"imax":60,"route_workers":2}}`
	req := mustResolve(t, body)
	if mustResolve(t, workersBody).key != req.key {
		t.Fatal("route_workers split the cache key")
	}
	sol, err := core.Synthesize(req.graph, req.alloc, req.opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := session.New("ref", sol, req.alloc)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Snapshot()
	if len(want.SinglePoints) == 0 {
		t.Fatal("Synthetic1's single detector is no single point of failure")
	}
	e, err := encodeEntry(sol)
	if err != nil {
		t.Fatal(err)
	}
	s.cache.PutEntry(req.key, e)

	const opens = 8
	got := make([]sessionResponse, opens)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := body
			if i%2 == 1 {
				b = workersBody
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(b)))
			if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &got[i]) != nil {
				t.Errorf("open %d: %d: %s", i, rec.Code, rec.Body.String())
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	shared, err := e.Solution()
	if err != nil {
		t.Fatal(err)
	}
	var pinned *core.Solution
	for i, sr := range got {
		if !sr.Cached || sr.Fingerprint != want.Fingerprint || !slices.Equal(sr.SinglePoints, want.SinglePoints) {
			t.Errorf("open %d: cached %v, print %s, single points %v; session.New gives %s, %v",
				i, sr.Cached, sr.Fingerprint, sr.SinglePoints, want.Fingerprint, want.SinglePoints)
		}
		p := s.session(sr.ID).sess.Solution()
		if pinned == nil {
			pinned = p
		}
		if p != pinned {
			t.Errorf("open %d pins another solution copy: the entry built a second base", i)
		}
	}
	if pinned == shared || pinned.Schedule != shared.Schedule {
		t.Error("the base does not carry a shallow copy of the entry's shared solution")
	}
}

// BenchmarkSessionScript is one svcbench session-repair script through
// the handler: an open on a checked Synthetic4 entry whose base is
// built, six reroutes of dead suffix cells at increasing cuts, and a
// close. The six repairs reuse the session's heuristic fields and
// resume its print after the document's head.
func BenchmarkSessionScript(b *testing.B) {
	s := newAllocServer(b)
	const body = `{"bench":"Synthetic4","options":{"imax":60}}`
	req := mustResolve(b, body)
	sol, err := core.Synthesize(req.graph, req.alloc, req.opts)
	if err != nil {
		b.Fatal(err)
	}
	// The script: one live channel cell per cut, each on a route the
	// earlier faults leave alone, so every repair holds at the reroute.
	const faults = 6
	reports := make([]string, 0, faults)
	var dead []route.Cell
	for k := 1; k <= faults; k++ {
		at := sol.Schedule.Makespan * unit.Time(k) / unit.Time(faults+1)
		executed := schedule.Executed(sol.Schedule, at)
		consumer := make(map[int]int)
		for _, tr := range sol.Schedule.Transports {
			consumer[tr.ID] = int(tr.Consumer)
		}
		for _, rt := range sol.Routing.Routes {
			if executed[consumer[rt.Task.ID]] || len(rt.Path) < 3 {
				continue
			}
			if c := rt.Path[len(rt.Path)/2]; !slices.Contains(dead, c) {
				dead = append(dead, c)
				reports = append(reports, fmt.Sprintf(`{"at":%d,"cells":[{"x":%d,"y":%d}]}`, at, c.X, c.Y))
				break
			}
		}
	}
	if len(reports) != faults {
		b.Fatalf("found %d of %d fault cells", len(reports), faults)
	}
	e, err := encodeEntry(sol)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Check(); err != nil {
		b.Fatal(err)
	}
	s.cache.PutEntry(req.key, e)
	do := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	script := func() {
		rec := do("/v1/sessions", body)
		var sr sessionResponse
		if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &sr) != nil {
			b.Fatalf("create: %d: %s", rec.Code, rec.Body.String())
		}
		for _, fr := range reports {
			rec := do(sr.Faults, fr)
			var rr repairResponse
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &rr) != nil || rr.Record.Rung != session.RungReroute {
				b.Fatalf("fault: %d: %s", rec.Code, rec.Body.String())
			}
		}
		if rec := do(sr.Session+"/close", ""); rec.Code != http.StatusOK {
			b.Fatalf("close: %d: %s", rec.Code, rec.Body.String())
		}
	}
	script() // builds the entry's base
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		script()
	}
}
