package cluster

import (
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/breaker"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Config describes one node's view of the cluster. Zero values select
// sane defaults.
type Config struct {
	// Self is this node's own base URL exactly as it appears in the peer
	// list (e.g. "http://10.0.0.1:8080"). Required.
	Self string
	// Peers is the static membership: the base URL of every node,
	// including Self. Ignored when PeersFile is set.
	Peers []string
	// PeersFile, when set, names a discovery file with one peer URL per
	// line ('#' comments and blank lines ignored). The file is re-read
	// whenever its modification time changes, so membership can be edited
	// without restarting nodes.
	PeersFile string
	// VNodes is the virtual-node count per peer (default DefaultVNodes).
	VNodes int
	// ProbeInterval is how often the health prober polls every peer
	// (default 500 ms). The prober adds seeded jitter so a fleet of nodes
	// started together does not probe in lockstep.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default 1 s).
	ProbeTimeout time.Duration
	// DownAfter is how many consecutive probe failures mark a peer down
	// (default 2). One successful probe marks it up again.
	DownAfter int
	// MaxHops bounds forwarding: a request that has already been
	// forwarded MaxHops times is synthesized locally instead of forwarded
	// again, so a misconfigured ring (nodes disagreeing about membership)
	// degrades to extra local work, never a forwarding cycle (default 2).
	MaxHops int
	// ForwardRetries is how many times a forward retries a transient
	// failure (transport error, 429, 503, 5xx) before falling back to
	// local synthesis (default 2). Each retry backs off ForwardBackoff,
	// doubling.
	ForwardRetries int
	// ForwardBackoff is the base delay between forward retries
	// (default 25 ms).
	ForwardBackoff time.Duration
	// PeerTimeout bounds one read-through peer-cache lookup (default 1 s).
	// It is deliberately short: a peering miss must cost far less than
	// the synthesis it might save.
	PeerTimeout time.Duration
	// PollInterval is the forwarded-job poll cadence (default 2 ms).
	PollInterval time.Duration
	// BreakerThreshold opens a peer's circuit breaker after this many
	// consecutive failed forward/lookup exchanges (default 4; negative
	// disables). While open, the peer is treated as unreachable without
	// spending a connection attempt on it.
	BreakerThreshold int
	// BreakerCooldown is how long an open peer breaker stays open before
	// admitting a probe exchange (default 1 s).
	BreakerCooldown time.Duration
	// Seed drives the prober's deterministic jitter stream (default 1).
	Seed uint64
	// Logger receives membership and health transitions. Nil discards.
	Logger *slog.Logger
	// Client overrides the HTTP client for peer traffic (tests). Nil
	// builds one with pooled connections and no global timeout —
	// per-exchange deadlines come from contexts.
	Client *http.Client
}

// Cluster is one node's live cluster state. All methods are safe for
// concurrent use.
type Cluster struct {
	cfg    Config
	self   string
	client *http.Client
	log    *slog.Logger

	mu      sync.Mutex
	members []string // configured membership, normalized
	down    map[string]bool
	fails   map[string]int // consecutive probe failures
	ring    *Ring          // alive members only
	brk     map[string]*breaker.Breaker
	fileMod time.Time

	stop chan struct{}
	wg   sync.WaitGroup

	// Per-peer monotonic counters, labeled by peer URL.
	forwardOK   obs.CounterSet // forwards that returned a remote solution
	forwardFail obs.CounterSet // forwards that fell back to local synthesis
	peerHits    obs.CounterSet // read-through peer-cache hits
	peerMisses  obs.CounterSet // read-through peer-cache misses (404)
	peerErrors  obs.CounterSet // read-through peer-cache transport/HTTP errors
	probeOK     obs.CounterSet // successful health probes
	probeFail   obs.CounterSet // failed health probes
	writeBacks  obs.CounterSet // opportunistic write-backs delivered
}

// New validates cfg, builds the initial ring and starts the health
// prober (and the discovery-file watcher when configured). Call Close to
// stop the background goroutines.
func New(cfg Config) (*Cluster, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self is required")
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = DefaultVNodes
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 2
	}
	if cfg.MaxHops == 0 {
		cfg.MaxHops = 2
	}
	if cfg.ForwardRetries == 0 {
		cfg.ForwardRetries = 2
	}
	if cfg.ForwardBackoff <= 0 {
		cfg.ForwardBackoff = 25 * time.Millisecond
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 2 * time.Millisecond
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 4
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(nil2Discard(), nil))
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     30 * time.Second,
		}}
	}

	self, err := normalizePeer(cfg.Self)
	if err != nil {
		return nil, fmt.Errorf("cluster: self: %w", err)
	}
	c := &Cluster{
		cfg:    cfg,
		self:   self,
		client: client,
		log:    log,
		down:   make(map[string]bool),
		fails:  make(map[string]int),
		brk:    make(map[string]*breaker.Breaker),
		stop:   make(chan struct{}),
	}

	var peers []string
	if cfg.PeersFile != "" {
		peers, err = readPeersFile(cfg.PeersFile)
		if err != nil {
			return nil, err
		}
		if fi, err := os.Stat(cfg.PeersFile); err == nil {
			c.fileMod = fi.ModTime()
		}
	} else {
		peers, err = normalizePeers(cfg.Peers)
		if err != nil {
			return nil, err
		}
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	if !contains(peers, self) {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", self, peers)
	}
	c.setMembersLocked(peers)

	c.wg.Add(1)
	go c.probeLoop()
	if cfg.PeersFile != "" {
		c.wg.Add(1)
		go c.watchPeersFile()
	}
	return c, nil
}

// nil2Discard returns a writer that drops everything (slog needs an
// io.Writer; os.DevNull would cost a descriptor).
func nil2Discard() discard { return discard{} }

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Close stops the prober and watcher goroutines. It does not close the
// HTTP client's idle connections; the process owns those.
func (c *Cluster) Close() {
	close(c.stop)
	c.wg.Wait()
}

// normalizePeer canonicalizes one peer base URL: scheme + host only,
// lowercased, no trailing slash. Normalizing matters because peer
// identity is string equality — "http://A:8080/" and "http://a:8080"
// must be one ring member, not two.
func normalizePeer(raw string) (string, error) {
	raw = strings.TrimSpace(raw)
	u, err := url.Parse(raw)
	if err != nil {
		return "", err
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("peer %q: scheme must be http or https", raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("peer %q: missing host", raw)
	}
	return strings.ToLower(u.Scheme) + "://" + strings.ToLower(u.Host), nil
}

func normalizePeers(raw []string) ([]string, error) {
	var out []string
	for _, r := range raw {
		if strings.TrimSpace(r) == "" {
			continue
		}
		p, err := normalizePeer(r)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		out = append(out, p)
	}
	return out, nil
}

// readPeersFile parses a discovery file: one peer URL per line, '#'
// comments and blank lines ignored.
func readPeersFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: peers file: %w", err)
	}
	var raw []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		raw = append(raw, line)
	}
	return normalizePeers(raw)
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// setMembersLocked installs a new membership and rebuilds the alive
// ring. Caller holds c.mu or is inside New before goroutines start.
func (c *Cluster) setMembersLocked(peers []string) {
	c.members = peers
	c.rebuildRingLocked()
}

// SetMembers replaces the membership (the discovery-file path uses it;
// tests use it to exercise rebalancing).
func (c *Cluster) SetMembers(peers []string) error {
	norm, err := normalizePeers(peers)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.setMembersLocked(norm)
	c.mu.Unlock()
	return nil
}

// rebuildRingLocked recomputes the alive ring: members minus down
// peers. Self is never marked down (a node that can run this code is
// alive by definition).
func (c *Cluster) rebuildRingLocked() {
	alive := make([]string, 0, len(c.members))
	for _, p := range c.members {
		if p == c.self || !c.down[p] {
			alive = append(alive, p)
		}
	}
	c.ring = BuildRing(alive, c.cfg.VNodes)
}

// Self returns this node's normalized base URL.
func (c *Cluster) Self() string { return c.self }

// MaxHops returns the forwarding hop bound.
func (c *Cluster) MaxHops() int {
	if c.cfg.MaxHops < 0 {
		return 0
	}
	return c.cfg.MaxHops
}

// Members returns the configured membership (alive or not), sorted as
// configured.
func (c *Cluster) Members() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.members...)
}

// Owner returns the alive-ring owner of key and whether that is this
// node. An empty alive ring (every other peer down, self not a member)
// degenerates to local ownership.
func (c *Cluster) Owner(key string) (string, bool) {
	c.mu.Lock()
	owner := c.ring.Owner(key)
	c.mu.Unlock()
	if owner == "" {
		return c.self, true
	}
	return owner, owner == c.self
}

// lookupOrder returns the alive peers to consult for key — owner first,
// then ring successors — excluding self (the caller already missed its
// local cache).
func (c *Cluster) lookupOrder(key string) []string {
	c.mu.Lock()
	order := c.ring.Order(key, 0)
	c.mu.Unlock()
	out := order[:0]
	for _, p := range order {
		if p != c.self {
			out = append(out, p)
		}
	}
	return out
}

// Healthy reports whether peer is probed-up and its breaker is not
// open. It never claims a half-open probe slot — the actual exchange
// does that through breakerFor.
func (c *Cluster) Healthy(peer string) bool {
	c.mu.Lock()
	down := c.down[peer]
	brk := c.brk[peer]
	c.mu.Unlock()
	return !down && brk.State() != "open"
}

// breakerFor returns peer's circuit breaker, creating it on first use.
func (c *Cluster) breakerFor(peer string) *breaker.Breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.brk[peer]
	if !ok {
		b = breaker.New(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown, nil)
		c.brk[peer] = b
	}
	return b
}

// ---- health prober -------------------------------------------------------

// probeLoop polls every peer's /healthz on a jittered interval and
// flips down/up state. The jitter stream is seeded (Config.Seed), so a
// test or a reproduced incident replays the same probe schedule.
func (c *Cluster) probeLoop() {
	defer c.wg.Done()
	jit := rng.New(c.cfg.Seed)
	for {
		// interval ± 10%, deterministic in the seed.
		base := c.cfg.ProbeInterval
		off := time.Duration(jit.Uint64() % uint64(base/5+1))
		select {
		case <-c.stop:
			return
		case <-time.After(base - base/10 + off):
		}
		c.probeAll()
	}
}

// probeAll probes every non-self member once.
func (c *Cluster) probeAll() {
	c.mu.Lock()
	peers := append([]string(nil), c.members...)
	c.mu.Unlock()
	for _, p := range peers {
		if p == c.self {
			continue
		}
		c.probeOne(p)
	}
}

// probeOne GETs peer's /healthz and records the outcome, rebuilding the
// ring on a down/up transition.
func (c *Cluster) probeOne(peer string) {
	ok := c.healthz(peer)
	c.mu.Lock()
	changed := false
	if ok {
		c.fails[peer] = 0
		if c.down[peer] {
			delete(c.down, peer)
			changed = true
		}
	} else {
		c.fails[peer]++
		if !c.down[peer] && c.fails[peer] >= c.cfg.DownAfter {
			c.down[peer] = true
			changed = true
		}
	}
	if changed {
		c.rebuildRingLocked()
		alive := len(c.ring.Peers())
		c.mu.Unlock()
		if ok {
			c.log.Info("cluster: peer up, ring rebuilt", "peer", peer, "alive", alive)
		} else {
			c.log.Warn("cluster: peer down, ring rebuilt", "peer", peer, "alive", alive)
		}
		return
	}
	c.mu.Unlock()
}

// healthz performs one probe exchange.
func (c *Cluster) healthz(peer string) bool {
	req, err := http.NewRequest(http.MethodGet, peer+"/healthz", nil)
	if err != nil {
		c.probeFail.Add(peer, 1)
		return false
	}
	// The probe deadline rides a plain timer, not a context from a
	// request: probes belong to the node, not to any client.
	client := *c.client
	client.Timeout = c.cfg.ProbeTimeout
	resp, err := client.Do(req)
	if err != nil {
		c.probeFail.Add(peer, 1)
		return false
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.probeFail.Add(peer, 1)
		return false
	}
	c.probeOK.Add(peer, 1)
	return true
}

// ---- discovery-file watcher ----------------------------------------------

// watchPeersFile polls the discovery file's modification time and
// re-reads it on change. Poll cadence reuses the probe interval: both
// answer "how fast does the cluster notice change".
func (c *Cluster) watchPeersFile() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case <-time.After(c.cfg.ProbeInterval):
		}
		fi, err := os.Stat(c.cfg.PeersFile)
		if err != nil {
			continue // transient editor rename; keep the last membership
		}
		c.mu.Lock()
		changed := !fi.ModTime().Equal(c.fileMod)
		if changed {
			c.fileMod = fi.ModTime()
		}
		c.mu.Unlock()
		if !changed {
			continue
		}
		peers, err := readPeersFile(c.cfg.PeersFile)
		if err != nil || len(peers) == 0 {
			c.log.Warn("cluster: peers file unreadable, keeping membership", "path", c.cfg.PeersFile, "err", err)
			continue
		}
		c.mu.Lock()
		c.setMembersLocked(peers)
		n := len(peers)
		c.mu.Unlock()
		c.log.Info("cluster: membership reloaded", "path", c.cfg.PeersFile, "peers", n)
	}
}

// ---- stats ---------------------------------------------------------------

// PeerStats is one peer's point-in-time cluster counters, for the
// Prometheus exposition.
type PeerStats struct {
	Peer        string
	Up          bool
	ForwardOK   int64
	ForwardFail int64
	PeerHits    int64
	PeerMisses  int64
	PeerErrors  int64
	ProbeOK     int64
	ProbeFail   int64
	WriteBacks  int64
}

// PeerStats returns counters for every non-self member, sorted by peer
// URL.
func (c *Cluster) PeerStats() []PeerStats {
	c.mu.Lock()
	members := append([]string(nil), c.members...)
	down := make(map[string]bool, len(c.down))
	for p, d := range c.down {
		down[p] = d
	}
	c.mu.Unlock()

	out := make([]PeerStats, 0, len(members))
	for _, p := range members {
		if p == c.self {
			continue
		}
		out = append(out, PeerStats{
			Peer:        p,
			Up:          !down[p],
			ForwardOK:   c.forwardOK.Value(p),
			ForwardFail: c.forwardFail.Value(p),
			PeerHits:    c.peerHits.Value(p),
			PeerMisses:  c.peerMisses.Value(p),
			PeerErrors:  c.peerErrors.Value(p),
			ProbeOK:     c.probeOK.Value(p),
			ProbeFail:   c.probeFail.Value(p),
			WriteBacks:  c.writeBacks.Value(p),
		})
	}
	sortPeerStats(out)
	return out
}

func sortPeerStats(s []PeerStats) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Peer < s[j-1].Peer; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
