package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
)

// TestSubmitRejectsTrailingData: a body with anything but whitespace
// after its JSON value is refused with a 400 that names the trailing
// data, on each of the four endpoints that take a JSON body, before the
// journal records anything. Trailing whitespace stays legal (json.Encoder
// ends every body with a newline).
func TestSubmitRejectsTrailingData(t *testing.T) {
	jnl := filepath.Join(t.TempDir(), "journal.jsonl")
	s, err := New(Config{Workers: 1, QueueCap: 8, JournalPath: jnl})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	// accepted counts the journal's accepted records; terminal records
	// of earlier jobs may land at any time.
	accepted := func() int {
		b, err := os.ReadFile(jnl)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Count(string(b), `"op":"accepted"`)
	}
	do := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	rec := do("/v1/sessions", sessionBody)
	var sr sessionResponse
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &sr) != nil {
		t.Fatalf("create: %d: %s", rec.Code, rec.Body.String())
	}
	cell, at := sessionSuffixCell(t)
	// The batch asks for another key than the synthesis: a batch whose
	// every member is already cached answers 200, not 202.
	for _, c := range []struct {
		path, body string
		ok         int // the status of the body with trailing whitespace
	}{
		{"/v1/synthesize", `{"bench":"PCR","options":{"imax":5}}`, http.StatusAccepted},
		{"/v1/synthesize/batch", `{"requests":[{"bench":"PCR","options":{"imax":6}}]}`, http.StatusAccepted},
		{"/v1/sessions", sessionBody, http.StatusCreated},
		{sr.Faults, fmt.Sprintf(`{"at":%d,"cells":[{"x":%d,"y":%d}]}`, at, cell.X, cell.Y), http.StatusOK},
	} {
		for _, trail := range []string{` {"bench":"IVD"}`, " garbage", "\n]", "{}"} {
			before := accepted()
			rec := do(c.path, c.body+trail)
			var reply struct{ Error string }
			_ = json.Unmarshal(rec.Body.Bytes(), &reply)
			if rec.Code != http.StatusBadRequest || !strings.Contains(reply.Error, "trailing data") ||
				!strings.Contains(reply.Error, fmt.Sprintf("%q", strings.TrimSpace(trail))) {
				t.Errorf("%s with %q after the value: %d: %s, want a 400 naming it", c.path, trail, rec.Code, rec.Body.String())
			}
			if after := accepted(); after != before {
				t.Errorf("%s with %q after the value: the journal accepted it (%d records, then %d)", c.path, trail, before, after)
			}
		}
		if rec := do(c.path, c.body+"\n\t \r\n"); rec.Code != c.ok {
			t.Errorf("%s with trailing whitespace: %d: %s, want %d", c.path, rec.Code, rec.Body.String(), c.ok)
		}
	}
}

// TestJournalReplayKeepsFirstValue: the journal's replay decodes a
// record's request as it always has, the first JSON value, so a
// hand-written record whose body carries trailing bytes still replays,
// as a synthesis job and as a session create and fault report. The
// records go to replay directly: a journal line holds its request as a
// json.RawMessage, which carries one value, so the file itself cannot
// hand replay such a body.
func TestJournalReplayKeepsFirstValue(t *testing.T) {
	s := newAllocServer(t)
	cell, at := sessionSuffixCell(t)
	const sid = "s-replayed"
	s.replay([]journal.Record{
		{Op: "accepted", ID: "e1", Label: "r-1", Request: json.RawMessage(`{"bench":"PCR","options":{"imax":5}} {"bench":"IVD"}`)},
		{Op: "accepted", ID: "e2", Label: sessionLabel(sid, "c"), Request: json.RawMessage(sessionBody + " garbage")},
		{Op: "accepted", ID: "e3", Label: sessionLabel(sid, "f"),
			Request: json.RawMessage(fmt.Sprintf(`{"at":%d,"cells":[{"x":%d,"y":%d}]} trailing`, at, cell.X, cell.Y))},
	})
	if got := s.replayed.Load(); got != 3 {
		t.Fatalf("replayed %d of 3 records", got)
	}
	st := s.session(sid)
	if st == nil {
		t.Fatal("the session create did not replay")
	}
	if snap := st.sess.Snapshot(); len(snap.Repairs) != 1 || snap.CellsLost != 1 {
		t.Fatalf("the fault report did not replay: %+v", snap)
	}
}
