package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/jobq"
)

// batch.go implements POST /v1/synthesize/batch: many synthesis requests
// in one round trip, deduplicated through the content-addressed solution
// cache before any work is scheduled.
//
// Semantics, member by member:
//
//   - Every member is a complete SynthesizeRequest and is validated up
//     front; one invalid member rejects the whole batch with 400 (nothing
//     has been scheduled yet, so the reject is side-effect free).
//   - Members are grouped by solution-cache key. Duplicates never cost a
//     second synthesis: they share the canonical member's job and carry
//     `duplicate_of` so the client can see the collapse.
//   - A unique member behaves exactly like a single POST /v1/synthesize:
//     cache hit → completed job; otherwise it is journaled (crash replay
//     resubmits it as a single request), then either forwarded to its
//     ring owner (cluster mode, per-member routing — one batch can fan
//     out across every node) or scheduled on the local worker pool.
//   - Queue overflow is per member: members that fit are accepted, the
//     rest report status "rejected" instead of failing the batch. The
//     whole batch is shed with 503 only while the circuit breaker is
//     open, mirroring the single-submit path.
//
// Read-through cache peering is deliberately skipped here: a member
// owned by another node is forwarded to that owner (which answers from
// its cache instantly), and serializing N peer probes in the handler
// would defeat the point of batching.

// maxBatchMembers bounds one batch. Beyond it clients should split the
// batch; the bound keeps the handler's up-front resolution work and the
// response size predictable.
const maxBatchMembers = 256

// batchRequest is the body of POST /v1/synthesize/batch. Members are
// kept raw so each is journaled (and replayed) verbatim, exactly like a
// single submit's body.
type batchRequest struct {
	Requests []json.RawMessage `json:"requests"`
}

// batchMember is one member's outcome in the batch response.
type batchMember struct {
	Index int `json:"index"`
	// JobID and Job reference the job answering this member. Duplicate
	// members reference the canonical member's job.
	JobID  string `json:"job_id,omitempty"`
	Job    string `json:"job,omitempty"`
	Status string `json:"status"`
	Cached bool   `json:"cached,omitempty"`
	// Key is the member's solution-cache key — identical members have
	// identical keys, which is what the dedupe keys on.
	Key string `json:"cache_key,omitempty"`
	// DuplicateOf is the index of the earlier member this one collapsed
	// onto (nil for canonical members).
	DuplicateOf *int `json:"duplicate_of,omitempty"`
	// Error explains a rejected member (queue overflow after retries).
	Error string `json:"error,omitempty"`
}

// batchResponse is the body of POST /v1/synthesize/batch.
type batchResponse struct {
	Requests int `json:"requests"`
	// Unique counts distinct solution-cache keys; Deduped = Requests -
	// Unique members collapsed onto an earlier member's job.
	Unique  int           `json:"unique"`
	Deduped int           `json:"deduped"`
	Members []batchMember `json:"members"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	bodyBuf := getBuf()
	defer putBuf(bodyBuf)
	if _, err := bodyBuf.ReadFrom(http.MaxBytesReader(w, r.Body, 64<<20)); err != nil {
		writeErr(w, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	var breq batchRequest
	if err := decodeBody(bodyBuf.Bytes(), &breq); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if len(breq.Requests) == 0 {
		writeErr(w, http.StatusBadRequest, "batch has no members")
		return
	}
	if len(breq.Requests) > maxBatchMembers {
		writeErr(w, http.StatusBadRequest, "batch has %d members, limit %d", len(breq.Requests), maxBatchMembers)
		return
	}

	// Resolve every member before scheduling anything: an invalid member
	// rejects the whole batch while the reject is still side-effect free.
	reqs := make([]*request, len(breq.Requests))
	for i, raw := range breq.Requests {
		var sreq SynthesizeRequest
		mdec := json.NewDecoder(bytes.NewReader(raw))
		mdec.DisallowUnknownFields()
		if err := mdec.Decode(&sreq); err != nil {
			writeErr(w, http.StatusBadRequest, "member %d: decoding: %v", i, err)
			return
		}
		req, err := resolve(&sreq)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "member %d: %v", i, err)
			return
		}
		reqs[i] = req
	}
	if err := s.flt.Err(fault.ServerHandlerError); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.flt.Sleep(r.Context(), fault.ServerResponseSlow)

	s.metrics.batchRequests.Add(1)
	s.metrics.batchMembers.Add(int64(len(reqs)))
	s.countWorkload(r, len(reqs))

	// Load shedding mirrors the single-submit path: while the breaker is
	// open the whole batch is answered immediately.
	if !s.brk.Allow() {
		s.metrics.jobsShed.Add(int64(len(reqs)))
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.BreakerCooldown.Seconds())+1))
		writeErr(w, http.StatusServiceUnavailable, "shedding load: queue has been full for %d consecutive submissions", s.cfg.BreakerThreshold)
		return
	}

	reqID := RequestID(r.Context())
	traceID := sanitizeID(r.Header.Get(cluster.HeaderTraceID))
	parentSpan := sanitizeID(r.Header.Get(cluster.HeaderParentSpan))
	hops := 0
	if s.cl != nil {
		hops = cluster.Hops(r.Header)
	}

	resp := batchResponse{Requests: len(reqs), Members: make([]batchMember, len(reqs))}
	canonical := make(map[string]int) // cache key → canonical member index
	anyQueued, rejected := false, 0
	for i, req := range reqs {
		m := &resp.Members[i]
		m.Index = i
		m.Key = req.key

		if ci, dup := canonical[req.key]; dup {
			// Collapsed: share the canonical member's job. The canonical
			// member may itself have been rejected — the duplicate then
			// reports the same outcome (there is no job to share).
			c := resp.Members[ci]
			idx := ci
			m.DuplicateOf = &idx
			m.JobID, m.Job, m.Status, m.Cached, m.Error = c.JobID, c.Job, c.Status, c.Cached, c.Error
			resp.Deduped++
			s.metrics.batchDeduped.Add(1)
			continue
		}
		canonical[req.key] = i
		resp.Unique++
		label := reqID + "#" + strconv.Itoa(i)

		// Each member gets its own span recorder joined to the inbound
		// trace, so a traced batch yields one timeline per member job.
		rec := s.newRecorder(traceID, parentSpan)

		if e := s.cached(req.key); e != nil {
			if err := e.Check(); err != nil {
				writeErr(w, http.StatusInternalServerError, "member %d: cached solution invalid: %v", i, err)
				return
			}
			res := cachedResult(req.key, e)
			s.seal(rec, res, routeCacheHit)
			id, err := s.q.Complete(label, res, "served from cache")
			if err != nil {
				writeErr(w, http.StatusServiceUnavailable, "%v", err)
				return
			}
			m.JobID, m.Job, m.Status, m.Cached = id, "/v1/jobs/"+id, string(jobq.Done), true
			s.recordServed(label, rec, routeCacheHit, start)
			continue
		}

		// Journal before submit, exactly like a single request: the raw
		// member body replays as a standalone submission after a crash.
		var entry string
		if s.jnl != nil {
			var err error
			entry, err = s.jnl.Accepted(label, breq.Requests[i])
			if err != nil {
				writeErr(w, http.StatusInternalServerError, "journal: %v", err)
				return
			}
		}

		var id string
		var err error
		submitAt := time.Now()
		if owner, isSelf := s.owner(req.key); !isSelf && hops < s.cl.MaxHops() && s.cl.Healthy(owner) {
			body := append([]byte(nil), breq.Requests[i]...)
			id, err = s.q.SubmitDetached(label, s.forwardJob(req, owner, label, hops, body, rec, submitAt))
		} else {
			id, err = s.submitWithRetry(r.Context(), label, s.synthesisJob(req, label, rec, submitAt))
		}
		switch {
		case errors.Is(err, jobq.ErrQueueFull):
			if s.brk.Overflow() {
				s.log.Warn("circuit breaker opened",
					"threshold", s.cfg.BreakerThreshold, "cooldown", s.cfg.BreakerCooldown)
			}
			s.metrics.jobsRejected.Add(1)
			if s.jnl != nil {
				s.journalTerminal(entry, "rejected")
			}
			m.Status, m.Error = "rejected", "queue full: retry later"
			s.recordDropped(label, rec, "rejected", start)
			rejected++
		case err != nil:
			// Shutdown or another hard submit error: report the member and
			// carry on — members already accepted stay accepted.
			if s.jnl != nil {
				s.journalTerminal(entry, "rejected")
			}
			m.Status, m.Error = "rejected", err.Error()
			rejected++
		default:
			s.brk.Success()
			s.registerJournal(id, entry)
			s.metrics.jobsAccepted.Add(1)
			m.JobID, m.Job, m.Status = id, "/v1/jobs/"+id, string(jobq.Queued)
			anyQueued = true
		}
	}

	// Propagate outcomes onto duplicates of late-resolving canonicals is
	// unnecessary: duplicates are always resolved after their canonical
	// member (first occurrence wins), so the copy above is complete.
	code := http.StatusOK
	switch {
	case rejected == resp.Unique && resp.Unique > 0 && !anyQueued:
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case anyQueued:
		code = http.StatusAccepted
	}
	writeJSON(w, code, resp)
}
