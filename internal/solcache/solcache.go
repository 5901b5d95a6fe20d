// Package solcache is the content-addressed result cache of the
// synthesis service. The paper's flow is deterministic in its inputs —
// every stage takes an explicit seed — so a complete solution is a pure
// function of (assay, allocation, options, algorithm). That makes results
// content-addressable: the cache key is the SHA-256 of a canonical
// encoding of those inputs, and the value is an Entry holding the
// solio-serialized solution, byte-identical to what a fresh synthesis of
// the same request would produce, together with the metrics a hit
// reports. Entries are bounded by total size — documents plus the
// solutions decoded from them — with least-recently-used eviction, and
// hit/miss counters feed the service's /metrics endpoint.
package solcache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/session"
	"repro/internal/solio"
)

// ErrChecksum reports a cached document whose bytes no longer match the
// CRC-32C taken when its entry was built. GetEntry drops such an entry
// and counts a miss, so the bytes are never served.
var ErrChecksum = errors.New("solcache: document fails its CRC-32C")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Entry is one cached solution: the canonical solio document, the
// metrics and degradations a hit reports (CPU zero, which is what a
// decode yields), and a CRC-32C of the document.
//
// Immutability rule: an entry is shared, never copied — by the cache, by
// every job record it answered and by peer responses. Nobody writes to
// an entry, to the bytes of its Doc or to the solution Solution decodes
// once it is built; GetEntry verifies the CRC, so a write to the bytes
// that breaks this rule is dropped as a miss instead of being served.
type Entry struct {
	Doc          []byte
	Metrics      core.Metrics
	Degradations []core.Degradation
	sum          uint32

	// check runs once, on the entry's first read (Check or Solution);
	// err keeps its outcome for every later read.
	check sync.Once
	err   error

	// decode runs once, on the first Solution call, and keeps the
	// decoded solution (or solErr) for every later one.
	decode sync.Once
	sol    atomic.Pointer[core.Solution]
	solErr error

	// base runs once, on the first SessionBase call, and keeps the
	// session base built on the decoded solution (or baseErr).
	base    sync.Once
	sbase   *session.Base
	baseErr error

	// owner is the cache holding the entry, nil when none does; charged
	// is the part of that cache's byte count the entry accounts for. Both
	// change only under the owner's lock.
	owner   atomic.Pointer[Cache]
	charged int64
}

// NewEntry wraps a freshly encoded document with the metrics and
// degradations of the solution it encodes, taking ownership of doc. The
// entry starts unchecked: its first read decodes doc in full and compares
// what the decode recovers with m (CPU ignored) and dg.
func NewEntry(doc []byte, m core.Metrics, dg []core.Degradation) *Entry {
	m.CPU = 0
	return &Entry{Doc: doc, Metrics: m, Degradations: dg, sum: crc32.Checksum(doc, castagnoli)}
}

// DecodeEntry decodes doc in full — bytes from outside this process: a
// peer's cache, an owner's reply to a forward, a write-back — and wraps
// it in an entry that starts out checked, holding the metrics and
// degradations the decode recovered. It takes ownership of doc.
func DecodeEntry(doc []byte) (*Entry, error) {
	sol, err := solio.Decode(bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	e := NewEntry(doc, sol.Metrics(), sol.Degradations)
	e.check.Do(func() {})
	return e, nil
}

// Check validates the entry on its first call: a full solio.Decode of
// the document, which re-runs every validator, whose metrics and
// degradations must equal the stored ones. Later calls return the first
// outcome without decoding.
func (e *Entry) Check() error {
	e.check.Do(func() { _, e.err = e.decodeChecked() })
	return e.err
}

// Solution returns the entry's decoded solution, shared by every caller:
// it is read-only, and a caller that needs to change a field copies the
// struct first. The first call decodes the document once; on an
// unchecked entry that decode is the entry's check, on a checked one it
// skips the validators (solio.DecodeUnvalidated), which already passed
// over these bytes. The decoded solution stays alive as long as the
// entry, so a cache holding the entry charges it to its byte bound.
func (e *Entry) Solution() (*core.Solution, error) {
	e.decode.Do(func() {
		var sol *core.Solution
		e.check.Do(func() { sol, e.err = e.decodeChecked() })
		if e.err != nil {
			return
		}
		if sol == nil {
			if sol, e.solErr = solio.DecodeUnvalidated(bytes.NewReader(e.Doc)); e.solErr != nil {
				return
			}
		}
		e.sol.Store(sol)
		if c := e.owner.Load(); c != nil {
			c.recharge(e)
		}
	})
	if e.err != nil {
		return nil, e.err
	}
	return e.sol.Load(), e.solErr
}

// SessionBase returns the base every session opened on the entry starts
// from (session.Open): the print, its saved head and the what-if study
// of the entry's shared solution, built once, on the first call, on a
// shallow copy of the solution that carries opts. opts and alloc are
// the first caller's: the entry's key covers every field of them a
// request can set except route workers, which no repair reads, so any
// later caller would build the same base. A base lives as long as the
// entry; it is under a kilobyte beside the solution and holds no
// routing state, so the cache does not charge it.
func (e *Entry) SessionBase(opts core.Options, alloc chip.Allocation) (*session.Base, error) {
	e.base.Do(func() {
		sol, err := e.Solution()
		if err != nil {
			e.baseErr = err
			return
		}
		c := *sol
		c.Opts = opts
		e.sbase, e.baseErr = session.NewBase(&c, alloc)
	})
	return e.sbase, e.baseErr
}

// size is what the entry costs a cache: its document, plus as much again
// once its solution is decoded. A decoded solution keeps 0.64–0.75× its
// document's bytes alive on six of the Table I documents (Imax 150) and
// 1.7× on PCR's 5 KB one, whose fixed overheads dominate.
func (e *Entry) size() int64 {
	n := int64(len(e.Doc))
	if e.sol.Load() != nil {
		n *= 2
	}
	return n
}

// decodeChecked is the check: the full decode, compared with the stored
// values.
func (e *Entry) decodeChecked() (*core.Solution, error) {
	sol, err := solio.Decode(bytes.NewReader(e.Doc))
	if err != nil {
		return nil, err
	}
	if m := sol.Metrics(); m != e.Metrics {
		return nil, fmt.Errorf("solcache: stored metrics %+v, document decodes to %+v", e.Metrics, m)
	}
	if !slices.Equal(sol.Degradations, e.Degradations) {
		return nil, fmt.Errorf("solcache: stored degradations %v, document decodes to %v", e.Degradations, sol.Degradations)
	}
	return sol, nil
}

// Cache is a thread-safe LRU keyed by content hash.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	hits     int64
	misses   int64
	// flt injects cache faults (forced misses, dropped puts) when armed;
	// nil in production. Both faults are safe by construction: the cache
	// is a pure accelerator, so losing an entry can only cost a
	// recomputation, never correctness.
	flt *fault.Plan
}

type item struct {
	key string
	e   *Entry
}

// Stats is a point-in-time aggregate of the cache.
type Stats struct {
	Entries  int
	Bytes    int64
	MaxBytes int64
	Hits     int64
	Misses   int64
}

// New creates a cache bounded to maxBytes of stored documents and
// decoded solutions, each decoded solution charged as its document's
// size again (keys, metrics and bookkeeping are not counted). maxBytes
// <= 0 selects a 256 MiB default.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	return &Cache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Key hashes the canonical request parts into the content address. The
// caller is responsible for canonical part encodings (e.g. re-encoding a
// decoded assay through its stable MarshalJSON rather than hashing the
// client's formatting); each part is length-prefixed so distinct splits
// can never collide.
func Key(parts ...[]byte) string {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		n := len(p)
		for i := 7; i >= 0; i-- {
			lenBuf[i] = byte(n)
			n >>= 8
		}
		h.Write(lenBuf[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ValidKey reports whether s has the shape Key produces: exactly 64
// lowercase hex digits. The cluster's peer endpoints accept keys from
// the network and must reject anything else before touching the cache
// (a key is also a URL path segment there, so shape-checking doubles as
// input sanitization).
func ValidKey(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// SetFault arms the cache's injection points (solcache.get.miss,
// solcache.put.drop) on the given plan; nil disables injection.
func (c *Cache) SetFault(p *fault.Plan) {
	c.mu.Lock()
	c.flt = p
	c.mu.Unlock()
}

// GetEntry returns the shared entry stored under key, or nil on a miss,
// and records a hit or a miss. It verifies the document's CRC-32C first:
// an entry whose bytes changed after it was built is dropped, counted as
// a miss and reported with an error wrapping ErrChecksum.
func (c *Cache) GetEntry(key string) (*Entry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.flt.Fire(fault.CacheGetMiss) {
		c.misses++
		return nil, nil
	}
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, nil
	}
	e := el.Value.(*item).e
	if crc32.Checksum(e.Doc, castagnoli) != e.sum {
		c.remove(el)
		c.misses++
		return nil, fmt.Errorf("%w: key %s", ErrChecksum, key)
	}
	c.hits++
	c.ll.MoveToFront(el)
	return e, nil
}

// PutEntry stores e under key, taking ownership of it (see Entry's
// immutability rule), and evicts least-recently-used entries if the byte
// bound would be exceeded. Entries larger than the bound are not stored
// at all. Re-putting an existing key refreshes its recency and keeps the
// stored entry: the content is addressed by its key, so it cannot differ.
func (c *Cache) PutEntry(key string, e *Entry) {
	if e.size() > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.flt.Fire(fault.CachePutDrop) {
		return
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&item{key: key, e: e})
	e.owner.Store(c)
	c.rechargeLocked(e)
}

// recharge brings the cache's byte count up to date with e's size after
// its solution was decoded, evicting as PutEntry does. It is idempotent,
// so a decode racing the entry's PutEntry is charged exactly once
// whichever of the two sees the other.
func (c *Cache) recharge(e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.owner.Load() == c {
		c.rechargeLocked(e)
	}
}

// rechargeLocked charges e's current size and evicts down to the bound.
// Caller holds c.mu and e is in the cache.
func (c *Cache) rechargeLocked(e *Entry) {
	n := e.size()
	c.bytes += n - e.charged
	e.charged = n
	for c.bytes > c.maxBytes {
		c.remove(c.ll.Back())
	}
}

// remove unlinks one entry and gives back its charge. Caller holds c.mu.
func (c *Cache) remove(el *list.Element) {
	it := c.ll.Remove(el).(*item)
	delete(c.items, it.key)
	c.bytes -= it.e.charged
	it.e.charged = 0
	it.e.owner.Store(nil)
}

// Get is GetEntry for a caller that wants only the bytes: it returns the
// stored document, shared and not copied, so the caller must not write
// to it.
func (c *Cache) Get(key string) ([]byte, bool) {
	e, _ := c.GetEntry(key)
	if e == nil {
		return nil, false
	}
	return e.Doc, true
}

// Put is PutEntry for a caller that has only the bytes: doc is stored,
// without a copy, as an entry that records no metrics or degradations.
// Its check therefore fails for a document that decodes to anything
// else, so the service, which reports metrics on a hit, stores through
// PutEntry.
func (c *Cache) Put(key string, doc []byte) {
	c.PutEntry(key, NewEntry(doc, core.Metrics{}, nil))
}

// Stats returns current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:  c.ll.Len(),
		Bytes:    c.bytes,
		MaxBytes: c.maxBytes,
		Hits:     c.hits,
		Misses:   c.misses,
	}
}
