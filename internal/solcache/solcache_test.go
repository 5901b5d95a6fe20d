package solcache

import (
	"repro/internal/fault"

	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestKeyLengthPrefixPreventsSplitCollisions(t *testing.T) {
	a := Key([]byte("ab"), []byte("c"))
	b := Key([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("different part splits hashed to the same key")
	}
	if a != Key([]byte("ab"), []byte("c")) {
		t.Fatal("Key is not deterministic")
	}
	if len(a) != 64 {
		t.Fatalf("key %q is not a SHA-256 hex digest", a)
	}
}

func TestGetPutAndCounters(t *testing.T) {
	c := New(1 << 20)
	key := Key([]byte("assay"), []byte("opts"))
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key, []byte("solution"))
	got, ok := c.Get(key)
	if !ok || !bytes.Equal(got, []byte("solution")) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 || s.Bytes != int64(len("solution")) {
		t.Fatalf("stats %+v", s)
	}
	// The returned document is shared, not copied. A caller that writes
	// into it never has those bytes served back: the CRC-32C no longer
	// matches, so the next Get misses and the entry is gone.
	got[0] = 'X'
	if again, ok := c.Get(key); ok {
		t.Fatalf("written-to document served back: %q", again)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 2 || s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("stats after the dropped entry %+v", s)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	c := New(100)
	val := make([]byte, 40)
	c.Put("a", val)
	c.Put("b", val)
	// Touch "a" so "b" is the LRU entry.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("c", val) // 120 bytes total: evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %s evicted wrongly", k)
		}
	}
	if s := c.Stats(); s.Bytes > 100 {
		t.Fatalf("cache over byte bound: %+v", s)
	}
}

func TestOversizeValueRejected(t *testing.T) {
	c := New(10)
	c.Put("big", make([]byte, 11))
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("oversize value stored: %+v", s)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key([]byte{byte(i % 32)})
				c.Put(k, bytes.Repeat([]byte{byte(g)}, 64))
				c.Get(k)
				c.Stats()
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Entries == 0 || s.Bytes == 0 {
		t.Fatalf("stats %+v after concurrent load", s)
	}
	if s.Entries > 32 {
		t.Fatalf("more entries than distinct keys: %+v", s)
	}
}

func TestRePutRefreshesRecency(t *testing.T) {
	c := New(100)
	val := make([]byte, 40)
	c.Put("a", val)
	c.Put("b", val)
	c.Put("a", val) // refresh a: b becomes LRU
	c.Put("c", val)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted after a's refresh")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("refreshed entry a evicted")
	}
}

func ExampleKey() {
	fmt.Println(Key([]byte(`{"name":"PCR"}`), []byte(`{"seed":1}`))[:16])
	// Output: 058291ebe4aead90
}

// TestFaultInjection: a forced miss hides a present entry (counted as a
// miss) and a dropped put leaves the cache unchanged — both degrade to
// recomputation, never to corruption.
func TestFaultInjection(t *testing.T) {
	c := New(1 << 20)
	c.Put("k", []byte("v"))

	c.SetFault(fault.NewPlan(5).Arm(fault.CacheGetMiss, fault.Once(0)))
	if _, ok := c.Get("k"); ok {
		t.Fatal("injected miss still returned the entry")
	}
	if v, ok := c.Get("k"); !ok || string(v) != "v" {
		t.Fatalf("entry gone after injected miss: %q %v", v, ok)
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss 1 hit", s)
	}

	c.SetFault(fault.NewPlan(5).Arm(fault.CachePutDrop, fault.Once(0)))
	c.Put("k2", []byte("v2"))
	c.SetFault(nil)
	if _, ok := c.Get("k2"); ok {
		t.Fatal("dropped put stored the value anyway")
	}
	c.Put("k2", []byte("v2"))
	if v, ok := c.Get("k2"); !ok || string(v) != "v2" {
		t.Fatalf("put after injected drop failed: %q %v", v, ok)
	}
}
