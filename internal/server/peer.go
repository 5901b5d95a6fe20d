package server

import (
	"net/http"

	"repro/internal/solcache"
)

// peer.go serves the cluster's cache-peering endpoints, registered only
// when the server runs with a cluster (Config.Cluster != nil):
//
//	GET /v1/peer/solution/{key}  the cached solution document, or 404
//	PUT /v1/peer/solution/{key}  accept an off-owner write-back
//
// Both speak raw solio documents keyed by the content address, so a
// peered hit is byte-identical to a local one. The endpoints trust the
// cluster's nodes but not their payloads: keys are shape-checked and
// write-back bodies fully decoded (solcache.DecodeEntry) before they
// touch the cache, so one corrupted node cannot poison its peers.

// handlePeerGet serves a solution straight out of the local cache. The
// entry's CRC-32C is verified, so a document whose bytes changed in
// memory answers 404 like any miss. Its check is not run here: the
// fetching node decodes whatever it receives in full.
func (s *Server) handlePeerGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !solcache.ValidKey(key) {
		writeErr(w, http.StatusBadRequest, "malformed cache key %q", key)
		return
	}
	e := s.cached(key)
	if e == nil {
		writeErr(w, http.StatusNotFound, "no cached solution for %s", key)
		return
	}
	s.metrics.peerServed.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache-Key", key)
	_, _ = w.Write(e.Doc)
}

// handlePeerPut accepts a write-back: a solution this node owns but a
// sibling had to synthesize because this node was unreachable.
func (s *Server) handlePeerPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !solcache.ValidKey(key) {
		writeErr(w, http.StatusBadRequest, "malformed cache key %q", key)
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, 16<<20)); err != nil {
		writeErr(w, http.StatusBadRequest, "reading write-back: %v", err)
		return
	}
	// Decode before caching, so the entry starts out checked: a hit on a
	// document that fails its check is a 500, and a peer's bad bytes must
	// not cause one here.
	e, err := solcache.DecodeEntry(append([]byte(nil), buf.Bytes()...))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "write-back does not decode: %v", err)
		return
	}
	s.cache.PutEntry(key, e)
	s.metrics.peerStored.Add(1)
	w.WriteHeader(http.StatusNoContent)
}
