package solcache

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/benchdata"
	"repro/internal/core"
	"repro/internal/solio"
)

// pcrDoc synthesizes PCR and encodes it the way the service stores a
// solution: CPU zeroed, so the document is a pure function of the request.
func pcrDoc(t *testing.T) ([]byte, *core.Solution) {
	t.Helper()
	bm, err := benchdata.ByName("PCR")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Place.Imax = 20
	sol, err := core.Synthesize(bm.Graph, bm.Alloc, opts)
	if err != nil {
		t.Fatal(err)
	}
	sol.CPU = 0
	var buf bytes.Buffer
	if err := solio.Encode(&buf, sol); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sol
}

func TestPutEntryTakesOwnershipAndGetEntryShares(t *testing.T) {
	c := New(1 << 20)
	doc := []byte("document")
	c.PutEntry("k", NewEntry(doc, core.Metrics{}, nil))
	a, err := c.GetEntry("k")
	if a == nil || err != nil {
		t.Fatalf("GetEntry = %v, %v", a, err)
	}
	b, _ := c.GetEntry("k")
	if a != b {
		t.Fatal("two hits returned different entries")
	}
	if &a.Doc[0] != &doc[0] {
		t.Fatal("the stored document is a copy of the one put")
	}
}

// TestChecksumMismatchDropsEntry: bytes that change after Put are never
// served. The read reports ErrChecksum, counts a miss and drops the
// entry, so the following read is a plain miss.
func TestChecksumMismatchDropsEntry(t *testing.T) {
	c := New(1 << 20)
	doc := []byte("document")
	c.PutEntry("k", NewEntry(doc, core.Metrics{}, nil))
	doc[3] ^= 1
	e, err := c.GetEntry("k")
	if e != nil || !errors.Is(err, ErrChecksum) {
		t.Fatalf("GetEntry after a flipped byte = %v, %v; want nil, ErrChecksum", e, err)
	}
	if e, err := c.GetEntry("k"); e != nil || err != nil {
		t.Fatalf("second GetEntry = %v, %v; want a plain miss", e, err)
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 2 || s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestEntryCheck(t *testing.T) {
	doc, sol := pcrDoc(t)
	m := sol.Metrics()

	m.CPU = 5 * time.Millisecond // measurement, not content: ignored
	good := NewEntry(doc, m, sol.Degradations)
	if good.Metrics.CPU != 0 {
		t.Fatalf("entry keeps CPU %v, want 0", good.Metrics.CPU)
	}
	if err := good.Check(); err != nil {
		t.Fatalf("check of a fresh encoding: %v", err)
	}
	// Checked once: later reads neither decode nor allocate.
	if n := testing.AllocsPerRun(10, func() { _ = good.Check() }); n != 0 {
		t.Fatalf("a checked entry's Check allocates %.0f times", n)
	}

	wrongM := sol.Metrics()
	wrongM.ExecutionTime++
	wrongDg := []core.Degradation{{Stage: "place", Event: "reduced-effort"}}
	for name, e := range map[string]*Entry{
		"metrics":      NewEntry(doc, wrongM, sol.Degradations),
		"degradations": NewEntry(doc, sol.Metrics(), wrongDg),
		"document":     NewEntry([]byte(`{"version":1}`), core.Metrics{}, nil),
	} {
		first := e.Check()
		if first == nil {
			t.Fatalf("wrong %s passed the check", name)
		}
		if again := e.Check(); again != first {
			t.Fatalf("wrong %s: second check %v, first %v", name, again, first)
		}
		if _, err := e.Solution(); err != first {
			t.Fatalf("wrong %s: Solution after a failed check returned %v", name, err)
		}
	}
}

// TestSolutionIsTheCheck: on an unchecked entry the session path's decode
// is the check itself; afterwards Check costs nothing, and every call
// hands out a fresh solution the caller may modify.
func TestSolutionIsTheCheck(t *testing.T) {
	doc, sol := pcrDoc(t)
	e := NewEntry(doc, sol.Metrics(), sol.Degradations)
	a, err := e.Solution()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { _ = e.Check() }); n != 0 {
		t.Fatalf("Solution did not record the check: Check allocates %.0f times", n)
	}
	b, err := e.Solution()
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a.Schedule == b.Schedule {
		t.Fatal("two reads share one decoded solution")
	}
	if a.Metrics() != b.Metrics() || a.Metrics() != e.Metrics {
		t.Fatalf("decoded metrics %+v / %+v, stored %+v", a.Metrics(), b.Metrics(), e.Metrics)
	}

	wrong := sol.Metrics()
	wrong.ChannelLength++
	if _, err := NewEntry(doc, wrong, sol.Degradations).Solution(); err == nil {
		t.Fatal("Solution on an unchecked entry skipped the check")
	}
}

func TestDecodeEntryStartsChecked(t *testing.T) {
	doc, sol := pcrDoc(t)
	e, err := DecodeEntry(doc)
	if err != nil {
		t.Fatal(err)
	}
	if e.Metrics != sol.Metrics() {
		t.Fatalf("decoded metrics %+v, synthesized %+v", e.Metrics, sol.Metrics())
	}
	if n := testing.AllocsPerRun(10, func() { _ = e.Check() }); n != 0 {
		t.Fatalf("a decoded entry's Check allocates %.0f times", n)
	}
	if _, err := DecodeEntry([]byte(`{"version":1}`)); err == nil {
		t.Fatal("DecodeEntry accepted a document that does not decode")
	}
}

// TestEntryConcurrentFirstRead: many goroutines read one unchecked entry
// at once, through the cache and directly. Exactly one check runs, every
// reader sees its outcome, and each Solution is the reader's own.
func TestEntryConcurrentFirstRead(t *testing.T) {
	doc, sol := pcrDoc(t)
	c := New(1 << 20)
	c.PutEntry("k", NewEntry(doc, sol.Metrics(), sol.Degradations))
	var wg sync.WaitGroup
	sols := make([]*core.Solution, 8)
	for g := range sols {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e, err := c.GetEntry("k")
			if e == nil {
				t.Errorf("goroutine %d: miss (%v)", g, err)
				return
			}
			if g%2 == 0 {
				if err := e.Check(); err != nil {
					t.Errorf("goroutine %d: check: %v", g, err)
				}
				return
			}
			s, err := e.Solution()
			if err != nil {
				t.Errorf("goroutine %d: solution: %v", g, err)
				return
			}
			sols[g] = s
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(sols); g += 2 {
		for h := g + 2; h < len(sols); h += 2 {
			if sols[g] != nil && sols[g] == sols[h] {
				t.Fatalf("goroutines %d and %d share one decoded solution", g, h)
			}
		}
	}
}
