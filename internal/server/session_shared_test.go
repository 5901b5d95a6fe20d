package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/route"
	"repro/internal/session"
	"repro/internal/solio"
	"repro/internal/unit"
)

// idleComp picks a component failure the reschedule rung can repair: one
// with work at or after the cut and none running across it.
func idleComp(t *testing.T, sol *core.Solution, at unit.Time) chip.CompID {
	t.Helper()
	for _, bo := range sol.Schedule.Ops {
		if bo.Start < at {
			continue
		}
		busy := false
		for _, o := range sol.Schedule.Ops {
			busy = busy || o.Comp == bo.Comp && o.Start < at && o.End > at
		}
		if !busy {
			return bo.Comp
		}
	}
	t.Skip("no idle component with suffix work at this cut")
	return chip.NoComp
}

// TestSharedSessionSolutionIsReadOnly: sessions opened on one cached
// entry pin the entry's one decoded solution, and none of the four rungs
// writes to it. Four sessions repair concurrently — reroute and
// reschedule through the HTTP handler, the pre-flight dilate and sa
// rungs directly with an injected route.step.fail that fails their
// cheaper rungs — and afterwards the shared solution still encodes to
// the entry's document byte for byte. Under -race a write would also
// show as a race with the other sessions' reads.
func TestSharedSessionSolutionIsReadOnly(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	cell, at := sessionSuffixCell(t)
	if code := postJSON(t, ts.URL, "/v1/sessions", sessionBody, nil); code != http.StatusCreated {
		t.Fatalf("warm-up create: status %d", code)
	}
	e := s.cached(mustResolveKey(t, sessionBody))
	if e == nil {
		t.Fatal("the warm-up create left no cache entry")
	}
	shared, err := e.Solution()
	if err != nil {
		t.Fatal(err)
	}

	ids := make([]string, 4)
	for i := range ids {
		var sr sessionResponse
		if code := postJSON(t, ts.URL, "/v1/sessions", sessionBody, &sr); code != http.StatusCreated || !sr.Cached {
			t.Fatalf("create %d: status %d, cached %v", i, code, sr.Cached)
		}
		ids[i] = sr.ID
		if pinned := s.session(sr.ID).sess.Solution(); pinned == shared || pinned.Schedule != shared.Schedule {
			t.Fatalf("session %s does not pin a shallow copy of the shared solution", sr.ID)
		}
	}

	comp := idleComp(t, shared, at)
	var preflight route.Cell
	for _, rt := range shared.Routing.Routes {
		if len(rt.Path) >= 3 {
			preflight = rt.Path[len(rt.Path)/2]
			break
		}
	}
	post := func(id, body string) session.RepairRecord {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/faults", strings.NewReader(body)))
		var rr repairResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &rr) != nil {
			t.Errorf("fault report to %s: %d: %s", id, rec.Code, rec.Body.String())
		}
		return rr.Record
	}
	// failed is the number of route.Repair calls that fail before the
	// rung holds: reroute's and reschedule's, then the first dilation's.
	direct := func(id string, failed int) session.RepairRecord {
		ctx := fault.Into(context.Background(), fault.NewPlan(1).Arm(fault.RouteStepFail, fault.Policy{Prob: 1, Limit: failed}))
		rd, err := s.session(id).sess.Repair(ctx, session.FaultReport{At: 0, Cells: []route.Cell{preflight}})
		if err != nil {
			t.Errorf("repair of %s: %v", id, err)
		}
		return rd
	}
	want := []string{session.RungReroute, session.RungReschedule, session.RungDilate, session.RungSA}
	got := make([]string, len(want))
	var wg sync.WaitGroup
	for i, repair := range []func() session.RepairRecord{
		func() session.RepairRecord {
			return post(ids[0], fmt.Sprintf(`{"at":%d,"cells":[{"x":%d,"y":%d}]}`, at, cell.X, cell.Y))
		},
		func() session.RepairRecord { return post(ids[1], fmt.Sprintf(`{"at":%d,"comps":[%d]}`, at, comp)) },
		func() session.RepairRecord { return direct(ids[2], 2) },
		func() session.RepairRecord { return direct(ids[3], 5) },
	} {
		wg.Add(1)
		go func(i int, repair func() session.RepairRecord) {
			defer wg.Done()
			got[i] = repair().Rung
		}(i, repair)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("session %d repaired at rung %q, want %q", i, got[i], want[i])
		}
	}

	doc, err := solio.Append(nil, shared)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, e.Doc) {
		t.Fatal("the shared solution no longer encodes to its entry's document")
	}
	if again, _ := e.Solution(); again != shared {
		t.Fatal("the entry decoded its solution a second time")
	}
}

// BenchmarkSessionOpen is POST /v1/sessions on a checked entry whose
// solution is already decoded: the cache hit, the shallow copy and
// session.New (the open-time fingerprint and what-if study). Each
// session is closed outside the timer.
func BenchmarkSessionOpen(b *testing.B) {
	s := newAllocServer(b)
	const body = `{"bench":"Synthetic4","options":{"imax":60}}`
	do := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	open := func() string {
		rec := do("/v1/sessions", body)
		var sr sessionResponse
		if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &sr) != nil {
			b.Fatalf("create: %d: %s", rec.Code, rec.Body.String())
		}
		return sr.Session
	}
	do(open()+"/close", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := open()
		b.StopTimer()
		do(path+"/close", "")
		b.StartTimer()
	}
}
