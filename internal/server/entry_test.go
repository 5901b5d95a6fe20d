package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"testing"
	"time"

	"repro/internal/benchdata"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/solcache"
	"repro/internal/solio"
)

// entry_test.go pins the cache-entry contract of the serving path: a hit
// shares one checked entry instead of decoding bytes, a document whose
// bytes change in memory is never served, a document that fails its
// check fails every hit, and the stored metrics are exactly what a
// decode of the stored bytes recovers.

// flipStored flips one byte of the document cached under key, through
// the shared slice the cache hands out, and returns the flipped bytes.
// It breaks solcache.Entry's immutability rule on purpose: the CRC-32C
// must turn the write into a miss.
func flipStored(t *testing.T, s *Server, key string) []byte {
	t.Helper()
	e, err := s.cache.GetEntry(key)
	if e == nil {
		t.Fatalf("no entry under %s to corrupt (err %v)", key, err)
	}
	e.Doc[len(e.Doc)/2] ^= 0x01
	return append([]byte(nil), e.Doc...)
}

// waitCached polls until key has an entry (a finished job's insert).
func waitCached(t *testing.T, s *Server, key string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, ok := s.cache.Get(key); ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no cache entry for %s", key)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCorruptedEntryNeverServed flips a byte of a stored document and
// drives every read of the cache: the single submit, a batch member,
// session create and the peer GET. Each treats the entry as a miss, and
// the flipped bytes appear in no response.
func TestCorruptedEntryNeverServed(t *testing.T) {
	nodes := startCluster(t, 1, nil)
	s, base := nodes[0].srv, nodes[0].url
	key := keyOf(t, smallReq)

	var first submitResponse
	if code := postJSON(t, base, "/v1/synthesize", smallReq, &first); code != http.StatusAccepted {
		t.Fatalf("first POST: %d", code)
	}
	if jr := waitTerminal(t, base, first.JobID, 60*time.Second); jr.Status != "done" {
		t.Fatalf("first job: %s (%s)", jr.Status, jr.Error)
	}
	want := fetchSolution(t, base, first.JobID)
	notFlipped := func(what string, got []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s served %d bytes that differ from the original document", what, len(got))
		}
	}

	// Single submit: a miss whose re-synthesis serves the original bytes.
	flipStored(t, s, key)
	var sub submitResponse
	if code := postJSON(t, base, "/v1/synthesize", smallReq, &sub); code != http.StatusAccepted || sub.Cached {
		t.Fatalf("POST after corruption: %d cached=%v, want a 202 miss", code, sub.Cached)
	}
	if jr := waitTerminal(t, base, sub.JobID, 60*time.Second); jr.Status != "done" {
		t.Fatalf("re-synthesis: %s (%s)", jr.Status, jr.Error)
	}
	notFlipped("re-synthesis", fetchSolution(t, base, sub.JobID))

	// Batch member: the same miss.
	waitCached(t, s, key)
	flipStored(t, s, key)
	var br batchResponseJSON
	if code := postJSON(t, base, "/v1/synthesize/batch", batchBody(smallReq), &br); code != http.StatusAccepted {
		t.Fatalf("batch after corruption: %d, want 202", code)
	}
	if m := br.Members[0]; m.Cached || m.Status != "queued" {
		t.Fatalf("batch member after corruption: %+v, want a queued miss", m)
	}
	if jr := waitTerminal(t, base, br.Members[0].JobID, 60*time.Second); jr.Status != "done" {
		t.Fatalf("batch member: %s (%s)", jr.Status, jr.Error)
	}
	notFlipped("batch member", fetchSolution(t, base, br.Members[0].JobID))

	// Session create: falls through to a fresh synthesis.
	waitCached(t, s, key)
	flipStored(t, s, key)
	var sr sessionResponse
	if code := postJSON(t, base, "/v1/sessions", smallReq, &sr); code != http.StatusCreated || sr.Cached {
		t.Fatalf("session create after corruption: %d cached=%v, want a fresh synthesis", code, sr.Cached)
	}

	// Peer GET: a 404, like any miss.
	flipped := flipStored(t, s, key)
	code, body := getBody(t, base, "/v1/peer/solution/"+key)
	if code != http.StatusNotFound {
		t.Fatalf("peer GET after corruption: %d, want 404", code)
	}
	if bytes.Contains(body, flipped) {
		t.Fatal("peer GET served the corrupted document")
	}

	// Once the entry is dropped, the next synthesis restores it and hits
	// serve the original bytes again.
	if code := postJSON(t, base, "/v1/synthesize", smallReq, &sub); code != http.StatusAccepted {
		t.Fatalf("POST after the peer miss: %d", code)
	}
	waitTerminal(t, base, sub.JobID, 60*time.Second)
	if code := postJSON(t, base, "/v1/synthesize", smallReq, &sub); code != http.StatusOK || !sub.Cached {
		t.Fatalf("POST on the restored entry: %d cached=%v, want a 200 hit", code, sub.Cached)
	}
	notFlipped("restored hit", fetchSolution(t, base, sub.JobID))
}

// TestUndecodableEntryFailsEveryHit: an entry whose document fails
// solio.Decode is a server bug, answered with 500 on its first hit and
// on every later one (the failed check is remembered, not retried).
func TestUndecodableEntryFailsEveryHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	key := keyOf(t, smallReq)
	s.cache.PutEntry(key, solcache.NewEntry([]byte(`{"version":1}`), core.Metrics{}, nil))
	for i := 0; i < 3; i++ {
		if code := postJSON(t, ts.URL, "/v1/synthesize", smallReq, nil); code != http.StatusInternalServerError {
			t.Fatalf("hit %d on an undecodable entry: %d, want 500", i, code)
		}
	}
	if code := postJSON(t, ts.URL, "/v1/synthesize/batch", batchBody(smallReq), nil); code != http.StatusInternalServerError {
		t.Fatalf("batch hit on an undecodable entry: %d, want 500", code)
	}
}

// TestEntryMetricsMatchDecode: the metrics and degradations an entry
// stores for a fresh synthesis are exactly what solio.Decode recovers
// from its document, so a hit that reports them without decoding
// reports what a decoding hit reported. Covers every Table I benchmark
// under both algorithms and three seeds, generated assays, and a
// degraded solution.
func TestEntryMetricsMatchDecode(t *testing.T) {
	check := func(name string, sol *core.Solution) {
		t.Helper()
		e, err := encodeEntry(sol)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		dec, err := solio.Decode(bytes.NewReader(e.Doc))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if m := dec.Metrics(); m != e.Metrics {
			t.Errorf("%s: stored metrics %+v, decoded %+v", name, e.Metrics, m)
		}
		if !slices.Equal(dec.Degradations, e.Degradations) {
			t.Errorf("%s: stored degradations %v, decoded %v", name, e.Degradations, dec.Degradations)
		}
		if err := e.Check(); err != nil {
			t.Errorf("%s: check: %v", name, err)
		}
	}
	opts := core.DefaultOptions()
	opts.Place.Imax = 60
	for _, bm := range benchdata.All() {
		for _, baseline := range []bool{false, true} {
			synth := core.Synthesize
			if baseline {
				synth = core.SynthesizeBaseline
			}
			for seed := uint64(1); seed <= 3; seed++ {
				o := opts
				o.Place.Seed = seed
				sol, err := synth(bm.Graph, bm.Alloc, o)
				if err != nil {
					t.Fatalf("%s baseline=%v seed %d: %v", bm.Name, baseline, seed, err)
				}
				check(fmt.Sprintf("%s baseline=%v seed %d", bm.Name, baseline, seed), sol)
			}
		}
	}
	for _, ops := range []int{4, 8, 12} {
		g := benchdata.GenerateSynthetic(fmt.Sprintf("gen%d", ops), ops, chip.Allocation{2, 1, 1, 1}, uint64(ops))
		sol, err := core.Synthesize(g, chip.MinimalAllocation(g), opts)
		if err != nil {
			t.Fatalf("generated %d ops: %v", ops, err)
		}
		check(fmt.Sprintf("generated %d ops", ops), sol)
	}
	bm := benchdata.All()[0]
	o := opts
	o.Degrade.ScheduleDeadline = time.Nanosecond
	sol, err := core.Synthesize(bm.Graph, bm.Alloc, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Degradations) == 0 {
		t.Fatal("a 1 ns schedule deadline left no degradation")
	}
	check("degraded", sol)
}

// pinnedKeys are cache keys captured before named benchmarks hashed a
// memoized encoding: the memo must not move a single key, or every
// cached and peered solution would be orphaned.
var pinnedKeys = []struct{ body, key string }{
	{`{"bench":"PCR"}`, "9f0997df772c8c4f88d7cf9ff4e27fe44169266a0349bf7d37e4fce3caa6843c"},
	{`{"bench":"IVD","options":{"seed":3}}`, "1579516d0f1b276c817e4260873b7a94a46812480c8cea7beb933715e0307e7b"},
	{`{"bench":"CPA","baseline":true}`, "50652dc8852bd58dacebc7b88ced08ecea787e9f619a75a0ec25d19ae71e9319"},
	{`{"bench":"Synthetic1","options":{"imax":60}}`, "47d5efb564f84eee16f0cb333e1dae239db08a83b66093efbfe8576c071f3a6b"},
	{`{"bench":"Synthetic2","alloc":"(4,1,1,2)"}`, "df87eb85cdf1e4f621802fd7c5b262ff9cbebaef2cc8410b13f1700a579944cb"},
	{`{"bench":"Synthetic3","options":{"tc_s":3,"portfolio":2}}`, "8dad50bb495c59a4bf7ac04c8149c03afb5083ec88cc7b6e703158753fa3fb02"},
	{`{"bench":"Synthetic4","options":{"imax":60,"seed":7,"tempering":2}}`, "f211c23c72f2dea0f8160b37257d7cb29eef5fb511c8985d153a8f5674373c21"},
	{`{"assay":{"name":"tiny","operations":[{"name":"a","type":"mix","duration":"3s","fluid":"f1","diffusion_cm2_per_s":0.5},{"name":"b","type":"detect","duration":"2s","fluid":"f2","diffusion_cm2_per_s":0.1}],"dependencies":[{"from":"a","to":"b"}]},"options":{"seed":5}}`,
		"a2f1e4bac6557ea7741878777d4987facfc3cc3a2af92b9791dcd0646a0b8f0c"},
}

func TestCacheKeysPinned(t *testing.T) {
	for _, p := range pinnedKeys {
		if got := mustResolveKey(t, p.body); got != p.key {
			t.Errorf("%s\n key %s, pinned %s", p.body, got, p.key)
		}
	}
	// A named benchmark and the same graph sent inline with its
	// allocation are one computation, so they share one key.
	for _, bm := range benchdata.All() {
		named := fmt.Sprintf(`{"bench":%q,"options":{"seed":2}}`, bm.Name)
		if got, want := mustResolveKey(t, inlineBody(t, bm)), mustResolveKey(t, named); got != want {
			t.Errorf("%s: inline key %s, named key %s", bm.Name, got, want)
		}
	}
}

// inlineBody sends benchmark bm's graph inline with its allocation.
func inlineBody(tb testing.TB, bm benchdata.Benchmark) string {
	tb.Helper()
	g, err := json.Marshal(bm.Graph)
	if err != nil {
		tb.Fatal(err)
	}
	return fmt.Sprintf(`{"assay":%s,"alloc":%q,"options":{"seed":2}}`, g, bm.Alloc.String())
}

// BenchmarkCacheKey measures a request's resolution to its cache key:
// for a named benchmark, a lookup of the memoized encoding plus the
// options encoding and SHA-256; inline, the assay's decode and
// re-encoding on top.
func BenchmarkCacheKey(b *testing.B) {
	bm, err := benchdata.ByName("Synthetic4")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct{ name, body string }{
		{"named", `{"bench":"Synthetic4","options":{"seed":2}}`},
		{"inline", inlineBody(b, bm)},
	} {
		b.Run(c.name, func(b *testing.B) {
			var sreq SynthesizeRequest
			if err := json.Unmarshal([]byte(c.body), &sreq); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := resolve(&sreq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
