// Package solcache is the content-addressed result cache of the
// synthesis service. The paper's flow is deterministic in its inputs —
// every stage takes an explicit seed — so a complete solution is a pure
// function of (assay, allocation, options, algorithm). That makes results
// content-addressable: the cache key is the SHA-256 of a canonical
// encoding of those inputs, and the value is an Entry holding the
// solio-serialized solution, byte-identical to what a fresh synthesis of
// the same request would produce, together with the metrics a hit
// reports. Entries are bounded by total document size with
// least-recently-used eviction, and hit/miss counters feed the service's
// /metrics endpoint.
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

	"repro/internal/core"
	"repro/internal/fault"
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
// an entry or to the bytes of its Doc once it is built; a caller that
// needs a solution it may modify decodes one (Solution). GetEntry
// verifies the CRC, so a write that breaks this rule is dropped as a
// miss instead of being served.
type Entry struct {
	Doc          []byte
	Metrics      core.Metrics
	Degradations []core.Degradation
	sum          uint32

	// check runs once, on the entry's first read (Check or Solution);
	// err keeps its outcome for every later read.
	check sync.Once
	err   error
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
	e.check.Do(func() { _, e.err = e.decode() })
	return e.err
}

// Solution decodes the entry's document into a fresh solution the caller
// owns. On an unchecked entry that decode is the entry's check; on a
// checked one the validators already passed over these bytes, so it
// skips them (solio.DecodeUnvalidated).
func (e *Entry) Solution() (*core.Solution, error) {
	var sol *core.Solution
	e.check.Do(func() { sol, e.err = e.decode() })
	switch {
	case e.err != nil:
		return nil, e.err
	case sol != nil:
		return sol, nil
	}
	return solio.DecodeUnvalidated(bytes.NewReader(e.Doc))
}

// decode is the check: the full decode, compared with the stored values.
func (e *Entry) decode() (*core.Solution, error) {
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

// New creates a cache bounded to maxBytes of stored documents (keys,
// metrics and bookkeeping are not counted). maxBytes <= 0 selects a
// 256 MiB default.
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
// bound would be exceeded. Documents larger than the bound are not stored
// at all. Re-putting an existing key refreshes its recency and keeps the
// stored entry: the content is addressed by its key, so it cannot differ.
func (c *Cache) PutEntry(key string, e *Entry) {
	if int64(len(e.Doc)) > c.maxBytes {
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
	c.bytes += int64(len(e.Doc))
	for c.bytes > c.maxBytes {
		c.remove(c.ll.Back())
	}
}

// remove unlinks one entry. Caller holds c.mu.
func (c *Cache) remove(el *list.Element) {
	it := c.ll.Remove(el).(*item)
	delete(c.items, it.key)
	c.bytes -= int64(len(it.e.Doc))
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
