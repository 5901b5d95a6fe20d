package server

import (
	"bytes"
	"sync"
)

// pool.go holds the serving path's byte-buffer recycling. The three hot
// per-request allocations — the request-body read, the solio encode of a
// fresh solution, and every JSON response body — all funnel through one
// bytes.Buffer pool. Ownership rule: a pooled buffer never escapes the
// function that Got it; anything that must outlive the call is copied out
// to an exact-size slice first. For a solution document that copy is made
// once, by encodeEntry: the resulting solcache.Entry owns it, and the
// cache, every job record the entry answers and the peer endpoints share
// it under the entry's immutability rule instead of copying it again.
// The one copy is cheaper than it looks: without the pool, growing a
// fresh buffer to an n-byte document costs ~2n bytes of garbage across
// the doubling steps, plus the final slice; with it, the steady state is
// the single exact-size allocation.

// maxPooledBuf caps what the pool retains. A pathological request (the
// body reader admits up to 16 MiB) must not pin that much memory on the
// free list forever; oversized buffers are dropped for the GC.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	bufPool.Put(b)
}
