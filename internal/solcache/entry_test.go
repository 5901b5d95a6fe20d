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

// TestSolutionIsTheCheck: on an unchecked entry the first Solution's
// decode is the check itself; afterwards Check and Solution cost nothing,
// and every call hands out the one decoded solution, which matches the
// stored metrics. A wrong entry still fails.
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
	if n := testing.AllocsPerRun(10, func() { _, _ = e.Solution() }); n != 0 {
		t.Fatalf("a decoded entry's Solution allocates %.0f times", n)
	}
	b, err := e.Solution()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("two reads decoded the document twice")
	}
	if a.Metrics() != e.Metrics {
		t.Fatalf("decoded metrics %+v, stored %+v", a.Metrics(), e.Metrics)
	}

	wrong := sol.Metrics()
	wrong.ChannelLength++
	bad := NewEntry(doc, wrong, sol.Degradations)
	if s, err := bad.Solution(); err == nil || s != nil {
		t.Fatalf("Solution on a wrong unchecked entry = %v, %v; want its check to fail", s, err)
	}
	if err := bad.Check(); err == nil {
		t.Fatal("Check after a failed Solution passed")
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

// TestSolutionAfterCheckDecodesOnce: an entry checked first (the
// serve-warm path) decodes its solution on the first Solution call, with
// the validators skipped, and never again.
func TestSolutionAfterCheckDecodesOnce(t *testing.T) {
	doc, sol := pcrDoc(t)
	e := NewEntry(doc, sol.Metrics(), sol.Degradations)
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
	a, err := e.Solution()
	if err != nil || a == nil {
		t.Fatalf("Solution after Check = %v, %v", a, err)
	}
	if a.Metrics() != e.Metrics {
		t.Fatalf("decoded metrics %+v, stored %+v", a.Metrics(), e.Metrics)
	}
	if n := testing.AllocsPerRun(10, func() {
		if b, _ := e.Solution(); b != a {
			t.Fatal("second Solution decoded again")
		}
	}); n != 0 {
		t.Fatalf("Solution after the first allocates %.0f times", n)
	}
}

// TestDecodedSolutionIsCharged: the cache charges a decoded solution as
// its document's size again, exactly once however many reads share it,
// never holds more than MaxBytes, and gives the charge back when the
// entry leaves. Entries decoded before they are put are charged in full
// at the put.
func TestDecodedSolutionIsCharged(t *testing.T) {
	doc, sol := pcrDoc(t)
	n := int64(len(doc))
	entry := func() *Entry { return NewEntry(doc, sol.Metrics(), sol.Degradations) }
	c := New(4 * n)
	b := entry()
	c.PutEntry("a", entry())
	c.PutEntry("b", b)
	if s := c.Stats(); s.Bytes != 2*n {
		t.Fatalf("two undecoded entries charge %d bytes, want %d", s.Bytes, 2*n)
	}
	a, _ := c.GetEntry("a")
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Bytes != 2*n {
		t.Fatalf("a check, which keeps nothing, charged: %d bytes, want %d", s.Bytes, 2*n)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.Solution(); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Bytes != 3*n || s.Entries != 2 {
		t.Fatalf("after decoding a: %+v, want %d bytes in 2 entries", s, 3*n)
	}

	// A decoded entry put later arrives charged in full: 5n evicts the
	// least recently used entry, b, and gives its n back.
	d := entry()
	if _, err := d.Solution(); err != nil {
		t.Fatal(err)
	}
	c.PutEntry("d", d)
	if s := c.Stats(); s.Bytes != 4*n || s.Entries != 2 {
		t.Fatalf("after putting decoded d: %+v, want %d bytes in 2 entries", s, 4*n)
	}
	if e, _ := c.GetEntry("b"); e != nil {
		t.Fatal("b survived an eviction the charge required")
	}
	// An entry decoded after its eviction charges nothing.
	if _, err := b.Solution(); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Bytes != 4*n {
		t.Fatalf("decoding the evicted b charged: %+v", s)
	}

	// Putting e evicts a (5n > 4n); decoding e fills the bound exactly.
	c.PutEntry("e", entry())
	e, _ := c.GetEntry("e")
	if _, err := e.Solution(); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Bytes != 4*n || s.Entries != 2 {
		t.Fatalf("after decoding e: %+v, want %d bytes in 2 entries", s, 4*n)
	}

	// One more decoded entry cannot fit beside them: the eviction gives
	// back each evicted entry's whole charge and stays within the bound.
	f := entry()
	if _, err := f.Solution(); err != nil {
		t.Fatal(err)
	}
	c.PutEntry("f", f)
	if s := c.Stats(); s.Bytes != 4*n || s.Entries != 2 || s.Bytes > s.MaxBytes {
		t.Fatalf("after putting decoded f: %+v, want %d bytes in 2 entries", s, 4*n)
	}
	c.Put("big", make([]byte, 4*n))
	if s := c.Stats(); s.Bytes != 4*n || s.Entries != 1 {
		t.Fatalf("after the evicting put: %+v, want only big's %d bytes", s, 4*n)
	}
}

// TestEntryConcurrentFirstRead: many goroutines read one unchecked entry
// at once, through the cache and directly. Exactly one check runs, every
// reader sees its outcome, all Solution readers share one decoded
// solution, and the cache charges it once.
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
	for g := 3; g < len(sols); g += 2 {
		if sols[g] == nil || sols[g] != sols[1] {
			t.Fatalf("goroutines 1 and %d read different solutions", g)
		}
	}
	if s := c.Stats(); s.Bytes != 2*int64(len(doc)) {
		t.Fatalf("cache charges %d bytes for one decoded entry, want %d", s.Bytes, 2*len(doc))
	}
}
