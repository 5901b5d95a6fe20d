package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func open(t *testing.T, path string) (*Journal, []Record, int) {
	t.Helper()
	j, pending, torn, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, pending, torn
}

func TestEmptyJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	_, pending, torn := open(t, path)
	if len(pending) != 0 || torn != 0 {
		t.Fatalf("fresh journal: pending %d torn %d", len(pending), torn)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Open did not create the file: %v", err)
	}
}

func TestPendingSurviveReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, _, _ := open(t, path)
	a, err := j.Accepted("req-a", json.RawMessage(`{"bench":"pcr"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := j.Accepted("req-b", json.RawMessage(`{"bench":"iftd"}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Terminal(a, "done"); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, pending, torn := open(t, path)
	if torn != 0 {
		t.Fatalf("clean journal reported %d torn lines", torn)
	}
	if len(pending) != 1 || pending[0].ID != b || pending[0].Label != "req-b" {
		t.Fatalf("pending = %+v, want the one unfinished entry %s", pending, b)
	}
	if string(pending[0].Request) != `{"bench":"iftd"}` {
		t.Fatalf("request body mangled: %s", pending[0].Request)
	}
	// Entry IDs must not collide with pre-restart ones.
	c, err := j2.Accepted("req-c", nil)
	if err != nil {
		t.Fatal(err)
	}
	if c == a || c == b {
		t.Fatalf("new entry ID %s collides with a pre-restart ID", c)
	}
}

func TestCompactionDropsFinishedWork(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, _, _ := open(t, path)
	for i := 0; i < 50; i++ {
		id, err := j.Accepted("req", json.RawMessage(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Terminal(id, "done"); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	open(t, path) // compacts
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("fully-finished journal not compacted to empty: %d bytes", len(data))
	}
}

func TestTornLastLineTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, _, _ := open(t, path)
	id, err := j.Accepted("req-a", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate a SIGKILL mid-write: append half a record with no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"terminal","id":"e`)
	f.Close()

	_, pending, torn := open(t, path)
	if torn != 1 {
		t.Fatalf("torn = %d, want 1", torn)
	}
	if len(pending) != 1 || pending[0].ID != id {
		t.Fatalf("torn tail corrupted replay: pending %+v", pending)
	}
}

func TestTerminalForUnknownEntryIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, _, _ := open(t, path)
	// A terminal with no matching accepted record (e.g. its accepted line
	// was torn away) must not break replay.
	if err := j.Terminal("e999", "done"); err != nil {
		t.Fatal(err)
	}
	id, err := j.Accepted("req", nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, pending, _ := open(t, path)
	if len(pending) != 1 || pending[0].ID != id {
		t.Fatalf("pending = %+v", pending)
	}
	// Sequence must have advanced past the orphan terminal's e999.
	next, err := j2.Accepted("req2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if next == "e999" || next == id {
		t.Fatalf("sequence reused an existing ID: %s", next)
	}
}

func TestConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, _, _ := open(t, path)
	const n = 64
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := j.Accepted("req", json.RawMessage(`{}`))
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = id
			if i%2 == 0 {
				if err := j.Terminal(id, "done"); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
	j.Close()
	_, pending, torn := open(t, path)
	if torn != 0 {
		t.Fatalf("concurrent appends tore %d lines", torn)
	}
	if len(pending) != n/2 {
		t.Fatalf("pending = %d, want %d", len(pending), n/2)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if id == "" || seen[id] {
			t.Fatalf("duplicate or missing entry ID %q", id)
		}
		seen[id] = true
	}
}

func TestGarbageLinesSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	content := strings.Join([]string{
		`{"op":"accepted","id":"e1","label":"a"}`,
		`not json at all`,
		`{"op":"frobnicate","id":"e2"}`,
		`{"op":"accepted","id":"e3","label":"b"}`,
		`{"op":"terminal","id":"e1","status":"done"}`,
	}, "\n") + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, pending, torn := open(t, path)
	if torn != 2 {
		t.Fatalf("torn = %d, want 2", torn)
	}
	if len(pending) != 1 || pending[0].ID != "e3" {
		t.Fatalf("pending = %+v, want just e3", pending)
	}
}

// BenchmarkJournalAppend is one served request's journal cost: the
// acceptance record of a Table I request body and its terminal record,
// each a single write to a file in the test's temp directory.
func BenchmarkJournalAppend(b *testing.B) {
	j, _, _, err := Open(filepath.Join(b.TempDir(), "jobs.journal"))
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	req := json.RawMessage(`{"bench":"Synthetic4","options":{"imax":60,"seed":1}}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := j.Accepted("req-bench", req)
		if err != nil {
			b.Fatal(err)
		}
		if err := j.Terminal(id, "done"); err != nil {
			b.Fatal(err)
		}
	}
}
