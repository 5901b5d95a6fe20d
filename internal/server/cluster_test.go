package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
)

// swapHandler lets a test stand up an httptest server before the
// *Server behind it exists (the cluster needs every peer's URL before
// any node can be built), and swap behaviours mid-test (e.g. break one
// endpoint to force a forward fallback).
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// cnode is one in-process cluster node.
type cnode struct {
	url string
	sw  *swapHandler
	cl  *cluster.Cluster
	srv *Server
}

// startCluster builds n fully-wired in-process nodes sharing one peer
// list. cfgFn (optional) may adjust each node's server config before it
// is built.
func startCluster(t *testing.T, n int, cfgFn func(i int, cfg *Config)) []*cnode {
	t.Helper()
	nodes := make([]*cnode, n)
	urls := make([]string, n)
	for i := range nodes {
		sw := &swapHandler{}
		ts := httptest.NewServer(sw)
		t.Cleanup(ts.Close)
		nodes[i] = &cnode{url: ts.URL, sw: sw}
		urls[i] = ts.URL
	}
	for i, nd := range nodes {
		cl, err := cluster.New(cluster.Config{
			Self:           nd.url,
			Peers:          urls,
			ProbeInterval:  20 * time.Millisecond,
			ProbeTimeout:   200 * time.Millisecond,
			ForwardBackoff: 5 * time.Millisecond,
			Seed:           1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		cfg := Config{Workers: 1, QueueCap: 16, Cluster: cl}
		if cfgFn != nil {
			cfgFn(i, &cfg)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		})
		nd.cl, nd.srv = cl, srv
		nd.sw.set(srv.Handler())
	}
	return nodes
}

// keyOf derives the cache key the servers will derive from body.
// Tests live in package server, so they can run the real resolution.
func keyOf(t *testing.T, body string) string {
	t.Helper()
	var sreq SynthesizeRequest
	if err := json.Unmarshal([]byte(body), &sreq); err != nil {
		t.Fatal(err)
	}
	req, err := resolve(&sreq)
	if err != nil {
		t.Fatal(err)
	}
	return req.key
}

// bodyOwnedBy searches seeds until it finds a request whose ring owner
// is the wanted node — the ring is deterministic, so this terminates in
// a handful of tries.
func bodyOwnedBy(t *testing.T, cl *cluster.Cluster, owner string) string {
	t.Helper()
	for seed := 1; seed < 1000; seed++ {
		body := fmt.Sprintf(`{"bench":"PCR","options":{"imax":60,"seed":%d}}`, seed)
		if got, _ := cl.Owner(keyOf(t, body)); got == owner {
			return body
		}
	}
	t.Fatal("no seed hashed to the wanted owner in 1000 tries")
	return ""
}

// postWithHeaders posts body with extra headers and decodes the reply.
func postWithHeaders(t *testing.T, base, body string, hdr map[string]string, out any) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/synthesize", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

// TestClusterForwardsToOwner: a request submitted to a non-owner must be
// synthesized by its ring owner, and a later identical request to the
// non-owner must be a warm hit without re-synthesis.
func TestClusterForwardsToOwner(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	// A body that node 1 owns, submitted to node 0.
	body := bodyOwnedBy(t, nodes[0].cl, nodes[1].url)

	var sub submitResponse
	if code := postWithHeaders(t, nodes[0].url, body, nil, &sub); code != http.StatusAccepted {
		t.Fatalf("submit to non-owner: status %d", code)
	}
	jr := waitTerminal(t, nodes[0].url, sub.JobID, 30*time.Second)
	if jr.Status != "done" {
		t.Fatalf("forwarded job: %+v", jr)
	}
	if jr.Peer != nodes[1].url {
		t.Fatalf("job peer = %q, want owner %s", jr.Peer, nodes[1].url)
	}

	// Both nodes now hold the solution: the owner synthesized it, the
	// forwarder cached the returned document. A re-submit anywhere is a
	// local warm hit.
	var again submitResponse
	if code := postWithHeaders(t, nodes[0].url, body, nil, &again); code != http.StatusOK {
		t.Fatalf("warm re-submit: status %d", code)
	}
	if !again.Cached || again.Peer != "" {
		t.Fatalf("warm re-submit not a local hit: %+v", again)
	}

	// The two documents are byte-identical across nodes.
	key := keyOf(t, body)
	var docs [2][]byte
	for i, nd := range nodes {
		resp, err := http.Get(nd.url + "/v1/peer/solution/" + key)
		if err != nil {
			t.Fatal(err)
		}
		docs[i], _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d has no cached solution: %d", i, resp.StatusCode)
		}
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatal("forwarder and owner hold different solution bytes")
	}
}

// TestClusterWarmCrossNodeHit: a solution synthesized via one node must
// be served as a cache hit by a node that never saw the request, via
// read-through peering.
func TestClusterWarmCrossNodeHit(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	// A body node 0 owns, submitted to node 0: purely local, node 1 has
	// never seen it.
	body := bodyOwnedBy(t, nodes[0].cl, nodes[0].url)
	var sub submitResponse
	if code := postWithHeaders(t, nodes[0].url, body, nil, &sub); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitTerminal(t, nodes[0].url, sub.JobID, 30*time.Second)

	var warm submitResponse
	if code := postWithHeaders(t, nodes[1].url, body, nil, &warm); code != http.StatusOK {
		t.Fatalf("cross-node warm submit: status %d", code)
	}
	if !warm.Cached || warm.Peer != nodes[0].url {
		t.Fatalf("cross-node hit not peered from owner: %+v", warm)
	}
}

// TestClusterHopGuard: a request that already used its hop budget must
// be synthesized locally even when the ring says another node owns it —
// the guard that turns a misconfigured ring into extra work instead of
// a forwarding cycle.
func TestClusterHopGuard(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	body := bodyOwnedBy(t, nodes[0].cl, nodes[1].url)

	hdr := map[string]string{cluster.HeaderHops: fmt.Sprintf("%d", nodes[0].cl.MaxHops())}
	var sub submitResponse
	if code := postWithHeaders(t, nodes[0].url, body, hdr, &sub); code != http.StatusAccepted {
		t.Fatalf("submit at hop limit: status %d", code)
	}
	jr := waitTerminal(t, nodes[0].url, sub.JobID, 30*time.Second)
	if jr.Status != "done" {
		t.Fatalf("hop-limited job: %+v", jr)
	}
	if jr.Peer != "" {
		t.Fatalf("hop-limited request was still forwarded to %s", jr.Peer)
	}
	if jr.Stages == nil {
		t.Fatal("hop-limited job has no local stage timings — not synthesized here?")
	}
}

// TestClusterHopHeaderOutsideCacheKey is the regression test for the
// forwarded-hop header leaking into the cache key: the key is derived
// from the body alone, so the same body with and without forwarding
// headers must hit the same cache entry.
func TestClusterHopHeaderOutsideCacheKey(t *testing.T) {
	nodes := startCluster(t, 1, nil)
	body := `{"bench":"PCR","options":{"imax":60,"seed":7}}`

	hdr := map[string]string{cluster.HeaderHops: "1", cluster.HeaderRequestID: "upstream-1"}
	var first submitResponse
	if code := postWithHeaders(t, nodes[0].url, body, hdr, &first); code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	waitTerminal(t, nodes[0].url, first.JobID, 30*time.Second)

	// Same body, no forwarding headers: must be the same cache entry.
	var second submitResponse
	if code := postWithHeaders(t, nodes[0].url, body, nil, &second); code != http.StatusOK {
		t.Fatalf("second submit: status %d", code)
	}
	if !second.Cached {
		t.Fatal("hop header changed the cache key: identical body missed")
	}
}

// TestClusterRequestIDPropagation: one client request forwarded across
// the cluster must carry one request ID end to end — each node logs with
// the originating ID, not a fresh one.
func TestClusterRequestIDPropagation(t *testing.T) {
	var logs [2]bytes.Buffer
	var mu sync.Mutex
	nodes := startCluster(t, 2, func(i int, cfg *Config) {
		buf := &logs[i]
		cfg.Logger = slog.New(slog.NewTextHandler(lockedWriter{mu: &mu, w: buf}, nil))
	})
	body := bodyOwnedBy(t, nodes[0].cl, nodes[1].url)

	const rid = "trace-e2e-42"
	var sub submitResponse
	if code := postWithHeaders(t, nodes[0].url, body, map[string]string{cluster.HeaderRequestID: rid}, &sub); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	jr := waitTerminal(t, nodes[0].url, sub.JobID, 30*time.Second)
	if jr.Peer != nodes[1].url {
		t.Fatalf("request was not forwarded: %+v", jr)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range logs {
		if !strings.Contains(logs[i].String(), "request_id="+rid) {
			t.Fatalf("node %d never logged request_id=%s:\n%s", i, rid, logs[i].String())
		}
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestClusterFallbackAndWriteBack: when the owner accepts connections
// but cannot synthesize, the non-owner must degrade to local synthesis
// and then write the solution back to the owner, healing the ring.
func TestClusterFallbackAndWriteBack(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	body := bodyOwnedBy(t, nodes[0].cl, nodes[1].url)
	key := keyOf(t, body)

	// Break only node 1's synthesize endpoint: health and peer endpoints
	// stay up, so the owner looks alive and the forward is attempted.
	real := nodes[1].srv.Handler()
	nodes[1].sw.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/synthesize" {
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		real.ServeHTTP(w, r)
	}))

	var sub submitResponse
	if code := postWithHeaders(t, nodes[0].url, body, nil, &sub); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	jr := waitTerminal(t, nodes[0].url, sub.JobID, 30*time.Second)
	if jr.Status != "done" {
		t.Fatalf("fallback job: %+v", jr)
	}
	if jr.Peer != "" {
		t.Fatalf("job claims remote synthesis (%s) though the owner was broken", jr.Peer)
	}

	// The write-back must have landed in the owner's cache.
	resp, err := http.Get(nodes[1].url + "/v1/peer/solution/" + key)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner missing the written-back solution: %d", resp.StatusCode)
	}
	if got := nodes[1].srv.metrics.peerStored.Load(); got != 1 {
		t.Fatalf("owner peerStored = %d, want 1", got)
	}
}

// TestPeerEndpointValidation: the peer endpoints must reject malformed
// keys and bodies that don't decode — a corrupted node cannot poison a
// sibling's cache.
func TestPeerEndpointValidation(t *testing.T) {
	nodes := startCluster(t, 1, nil)
	base := nodes[0].url

	resp, err := http.Get(base + "/v1/peer/solution/not-a-key")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed key GET: %d, want 400", resp.StatusCode)
	}

	key := strings.Repeat("ab", 32)
	req, _ := http.NewRequest(http.MethodPut, base+"/v1/peer/solution/"+key, strings.NewReader("not a solution"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage write-back: %d, want 400", resp.StatusCode)
	}
	if _, ok := nodes[0].srv.cache.Get(key); ok {
		t.Fatal("garbage write-back reached the cache")
	}
}
