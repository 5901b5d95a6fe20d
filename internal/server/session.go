package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/jsonw"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/solcache"
)

// session.go: the chip-session API — long-lived sessions that pin one
// synthesized solution and repair it in place as the physical chip
// degrades, instead of resynthesizing from scratch.
//
//	POST /v1/sessions              synthesize (or serve from cache) and
//	                               pin the solution to a new session
//	GET  /v1/sessions/{id}         session snapshot: state, cut,
//	                               accumulated faults, repair log
//	POST /v1/sessions/{id}/faults  report dead cells / failed components
//	                               at an execution instant; the session
//	                               repairs the not-yet-executed suffix
//	POST /v1/sessions/{id}/close   finish the session
//
// Sessions are crash-safe: creates and fault reports are journaled
// (labels "sess:<id>:c" / "sess:<id>:f") before they take effect and
// stay pending while the session lives, so a SIGKILL mid-repair replays
// the session — deterministic synthesis plus deterministic repairs —
// back to exactly its pre-crash state. In cluster mode session traffic
// routes to the session ID's ring owner; a session held locally (e.g.
// created here while the owner was down) is always served locally.

// sessionLabelPrefix marks session records in the job journal.
const sessionLabelPrefix = "sess:"

func sessionLabel(sid, kind string) string { return sessionLabelPrefix + sid + ":" + kind }

// parseSessionLabel splits "sess:<sid>:<kind>".
func parseSessionLabel(label string) (sid, kind string, ok bool) {
	rest, found := strings.CutPrefix(label, sessionLabelPrefix)
	if !found {
		return "", "", false
	}
	i := strings.LastIndexByte(rest, ':')
	if i <= 0 || i == len(rest)-1 {
		return "", "", false
	}
	return rest[:i], rest[i+1:], true
}

// sessionEntry is one live session plus its server-side bookkeeping.
type sessionEntry struct {
	// mu serializes journal appends with the repairs they describe, so
	// the journal's file order is the order repairs were applied in —
	// the invariant replay depends on.
	mu      sync.Mutex
	sess    *session.Session
	entries []string // pending journal entry IDs (create + fault reports)
	cells   int      // last cumulative dead-cell count (gauge delta tracking)
}

// session looks up a session by ID: a live one, or a terminal one not
// yet evicted.
func (s *Server) session(id string) *sessionEntry {
	s.smu.Lock()
	defer s.smu.Unlock()
	return s.sessions[id]
}

// retireSession records that st reached a terminal state (closed or
// abandoned) and evicts the oldest terminal sessions beyond
// Config.Retain, so a long-running server holds a bounded number of
// them. An evicted ID answers 404 like an unknown one. Journal replay
// cannot bring one back: a session's close or abandon already wrote the
// terminal records of all its entries.
func (s *Server) retireSession(st *sessionEntry) {
	s.smu.Lock()
	defer s.smu.Unlock()
	s.retired = append(s.retired, st)
	for len(s.retired) > s.cfg.Retain {
		old := s.retired[0]
		s.retired[0] = nil
		s.retired = s.retired[1:]
		if id := old.sess.ID(); s.sessions[id] == old {
			delete(s.sessions, id)
		}
	}
}

// sessionResponse is the body of POST /v1/sessions.
type sessionResponse struct {
	session.Snapshot
	// Cached reports whether the pinned solution came from the solution
	// cache rather than a fresh synthesis.
	Cached bool `json:"cached,omitempty"`
	// Session and Faults are the session's snapshot and fault-report URLs.
	Session string `json:"session"`
	Faults  string `json:"faults"`
}

// repairResponse is the body of POST /v1/sessions/{id}/faults.
type repairResponse struct {
	Record   session.RepairRecord `json:"record"`
	Snapshot session.Snapshot     `json:"snapshot"`
	Error    string               `json:"error,omitempty"`
}

// WriteJSON writes the reply as encoding/json writes it (jsonw's
// format).
func (r *sessionResponse) WriteJSON(w *jsonw.Writer) {
	w.Object()
	r.Snapshot.WriteMembers(w)
	if r.Cached {
		w.Key("cached")
		w.Bool(true)
	}
	w.Key("session")
	w.String(r.Session)
	w.Key("faults")
	w.String(r.Faults)
	w.EndObject()
}

// WriteJSON writes the reply as encoding/json writes it (jsonw's
// format).
func (r *repairResponse) WriteJSON(w *jsonw.Writer) {
	w.Object()
	w.Key("record")
	r.Record.WriteJSON(w)
	w.Key("snapshot")
	r.Snapshot.WriteJSON(w)
	if r.Error != "" {
		w.Key("error")
		w.String(r.Error)
	}
	w.EndObject()
}

// reply is a session reply body that writes itself through jsonw.
type reply interface{ WriteJSON(*jsonw.Writer) }

// writeReply writes a session reply with the given status code: the body
// v's WriteJSON appends into a pooled buffer, byte for byte what
// writeJSON writes for the same value through encoding/json. A session
// reply holds no float, so it cannot fail to encode.
func writeReply(w http.ResponseWriter, code int, v reply) {
	buf := getBuf()
	defer putBuf(buf)
	jw := jsonw.NewWriter(buf.AvailableBuffer())
	v.WriteJSON(&jw)
	buf.Write(append(jw.Bytes(), '\n'))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	bodyBuf := getBuf()
	defer putBuf(bodyBuf)
	if _, err := bodyBuf.ReadFrom(http.MaxBytesReader(w, r.Body, 16<<20)); err != nil {
		writeErr(w, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	body := bodyBuf.Bytes()
	var sreq SynthesizeRequest
	if err := decodeBody(body, &sreq); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	req, err := resolve(&sreq)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.baseline {
		writeErr(w, http.StatusBadRequest, "baseline solutions cannot host a session (no storage-aware suffix re-entry)")
		return
	}
	s.countWorkload(r, 1)

	// A proxied create arrives with the session ID pinned by the sender;
	// a client-originated one gets a server-assigned ID and, in cluster
	// mode, is routed to that ID's ring owner.
	sid := sanitizeID(r.Header.Get(cluster.HeaderSessionID))
	if sid == "" {
		sid = fmt.Sprintf("s-%s-%d", s.entropy, s.sessSeq.Add(1))
		if s.proxySession(w, r, sid, body) {
			return
		}
	}

	rec := s.requestRecorder(r)
	w.Header().Set(cluster.HeaderTraceID, rec.TraceID())

	var entry string
	if s.jnl != nil {
		entry, err = s.jnl.Accepted(sessionLabel(sid, "c"), body)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "journal: %v", err)
			return
		}
	}
	st, cached, err := s.openSession(r.Context(), sid, req, rec)
	if err != nil {
		if entry != "" {
			s.journalTerminal(entry, "failed")
		}
		s.slo.Fail()
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if entry != "" {
		st.entries = append(st.entries, entry)
	}
	s.smu.Lock()
	s.sessions[sid] = st
	s.smu.Unlock()

	s.metrics.sessionsOpened.Add(1)
	s.metrics.sessionsLive.Add(1)
	rec.CloseRoot(routeSession)
	s.spansTotal.Add(int64(len(rec.Spans())))
	s.metrics.routes.Add(routeSession, 1)
	d := time.Since(start)
	s.slo.Observe(d)
	s.flight.Record(obs.RequestRecord{
		ID: RequestID(r.Context()), TraceID: rec.TraceID(), Time: time.Now(),
		DurMs: msf(d), Outcome: "opened", Route: routeSession, Cached: cached,
	})
	writeReply(w, http.StatusCreated, &sessionResponse{
		Snapshot: st.sess.Snapshot(),
		Cached:   cached,
		Session:  "/v1/sessions/" + sid,
		Faults:   "/v1/sessions/" + sid + "/faults",
	})
}

// openSession produces the cache entry of the solution to pin (a hit or
// an inline synthesis) and opens a session on the entry's session base.
// The solution always round-trips through its canonical solio document
// — cache-served and freshly synthesized sessions start from
// byte-identical state — and carries the request's fully resolved
// options (the document's option record is lossy on fields that don't
// affect solution bytes). The base is built once per entry, on the
// first open, and shared with every later session on it: an open is a
// cache hit and a struct copy. A session never writes the solution it
// pins, and its repairs build new ones.
func (s *Server) openSession(ctx context.Context, sid string, req *request, rec *obs.SpanRecorder) (*sessionEntry, bool, error) {
	e, cached, err := s.solutionEntry(ctx, req, rec)
	if err != nil {
		return nil, false, err
	}
	base, err := e.SessionBase(req.opts, req.alloc)
	if err != nil {
		return nil, cached, err
	}
	return &sessionEntry{sess: session.Open(sid, base)}, cached, nil
}

// solutionEntry serves the request's cache entry from the cache or
// synthesizes it inline (synchronously — session creation is a pinning
// operation, not a fire-and-poll job). Inline synthesis shares the
// worker-pool budget via sessSem so session creates cannot oversubscribe
// the node.
func (s *Server) solutionEntry(ctx context.Context, req *request, rec *obs.SpanRecorder) (*solcache.Entry, bool, error) {
	probeStart := time.Now()
	if e := s.cached(req.key); e != nil {
		rec.Add("cache.probe", "", probeStart, time.Since(probeStart), "hit")
		// The entry's shared, read-only solution: its first read
		// decodes it (on an unchecked entry that decode is the check),
		// every later open reuses it.
		if _, err := e.Solution(); err == nil {
			return e, true, nil
		}
		// An entry that fails its check falls through to a fresh
		// synthesis; the failed entry keeps its key.
	} else {
		rec.Add("cache.probe", "", probeStart, time.Since(probeStart), "miss")
	}
	select {
	case s.sessSem <- struct{}{}:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	defer func() { <-s.sessSem }()
	res, err := s.synthesizeLocal(ctx, req, func(string) {}, rec)
	if err != nil {
		return nil, false, err
	}
	return res.entry, false, nil
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("id")
	st := s.session(sid)
	if st == nil {
		if s.proxySession(w, r, sid, nil) {
			return
		}
		writeErr(w, http.StatusNotFound, "unknown session %q", sid)
		return
	}
	snap := st.sess.Snapshot()
	writeReply(w, http.StatusOK, &snap)
}

func (s *Server) handleSessionFault(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sid := r.PathValue("id")
	bodyBuf := getBuf()
	defer putBuf(bodyBuf)
	if _, err := bodyBuf.ReadFrom(http.MaxBytesReader(w, r.Body, 1<<20)); err != nil {
		writeErr(w, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	body := bodyBuf.Bytes()
	var fr session.FaultReport
	if err := decodeBody(body, &fr); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding fault report: %v", err)
		return
	}
	st := s.session(sid)
	if st == nil {
		if s.proxySession(w, r, sid, body) {
			return
		}
		writeErr(w, http.StatusNotFound, "unknown session %q", sid)
		return
	}
	s.countWorkload(r, 1)
	rec := s.requestRecorder(r)
	w.Header().Set(cluster.HeaderTraceID, rec.TraceID())

	// The journal append and the repair it describes commit under the
	// entry lock, so concurrent reports serialize in journal file order —
	// replay re-applies them in exactly the order they took effect.
	st.mu.Lock()
	var entry string
	if s.jnl != nil {
		var err error
		entry, err = s.jnl.Accepted(sessionLabel(sid, "f"), body)
		if err != nil {
			st.mu.Unlock()
			writeErr(w, http.StatusInternalServerError, "journal: %v", err)
			return
		}
	}
	ctx := r.Context()
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	ctx = obs.Into(ctx, obs.New(s.agg))
	ctx = fault.Into(ctx, s.flt)
	prevCells := st.cells
	repairStart := time.Now()
	rd, err := st.sess.Repair(ctx, fr)
	rec.Add("session.repair", "", repairStart, time.Since(repairStart), rd.Rung+" "+rd.Outcome)

	switch {
	case err == nil:
		if entry != "" {
			st.entries = append(st.entries, entry)
		}
		st.cells = rd.CellsLost
		st.mu.Unlock()
		s.metrics.sessionCells.Add(int64(rd.CellsLost - prevCells))
		s.metrics.sessionRepairs.Add(rd.Outcome, 1)
		s.metrics.histRepair.observe(rd.Dur)
		s.sealSessionRepair(r, rec, rd.Outcome, "", start)
		s.slo.Observe(time.Since(start))
		writeReply(w, http.StatusOK, &repairResponse{Record: rd, Snapshot: st.sess.Snapshot()})

	case errors.Is(err, session.ErrAbandoned):
		st.cells = rd.CellsLost
		s.terminalSessionLocked(st, entry, "abandoned")
		st.mu.Unlock()
		s.metrics.sessionCells.Add(int64(rd.CellsLost - prevCells))
		s.metrics.sessionRepairs.Add(session.OutcomeAbandoned, 1)
		s.metrics.histRepair.observe(rd.Dur)
		s.metrics.sessionsLive.Add(-1)
		s.retireSession(st)
		s.sealSessionRepair(r, rec, session.OutcomeAbandoned, err.Error(), start)
		s.slo.Fail()
		writeReply(w, http.StatusOK, &repairResponse{
			Record: rd, Snapshot: st.sess.Snapshot(), Error: err.Error(),
		})

	default:
		code, status := http.StatusBadRequest, "rejected"
		switch {
		case errors.Is(err, session.ErrNotActive):
			code = http.StatusConflict
		case fault.IsInjected(err):
			code, status = http.StatusInternalServerError, "failed"
		case ctx.Err() != nil:
			code, status = http.StatusServiceUnavailable, "failed"
		}
		if entry != "" {
			s.journalTerminal(entry, status)
		}
		st.mu.Unlock()
		s.sealSessionRepair(r, rec, "error", err.Error(), start)
		if code >= http.StatusInternalServerError {
			s.slo.Fail()
		}
		writeErr(w, code, "%v", err)
	}
}

// sealSessionRepair closes a fault-report request's trace and records it
// in the flight recorder under the session-repair route.
func (s *Server) sealSessionRepair(r *http.Request, rec *obs.SpanRecorder, outcome, errMsg string, start time.Time) {
	rec.CloseRoot(routeSessionRepair)
	s.spansTotal.Add(int64(len(rec.Spans())))
	s.metrics.routes.Add(routeSessionRepair, 1)
	s.flight.Record(obs.RequestRecord{
		ID: RequestID(r.Context()), TraceID: rec.TraceID(), Time: time.Now(),
		DurMs: msf(time.Since(start)), Outcome: outcome, Route: routeSessionRepair,
		Error: errMsg,
	})
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("id")
	st := s.session(sid)
	if st == nil {
		if s.proxySession(w, r, sid, nil) {
			return
		}
		writeErr(w, http.StatusNotFound, "unknown session %q", sid)
		return
	}
	st.mu.Lock()
	wasActive := st.sess.Close()
	s.terminalSessionLocked(st, "", "done")
	st.mu.Unlock()
	if wasActive {
		s.metrics.sessionsLive.Add(-1)
		s.retireSession(st)
	}
	snap := st.sess.Snapshot()
	writeReply(w, http.StatusOK, &snap)
}

// terminalSessionLocked closes out every pending journal entry of a
// session that reached a terminal state (plus extra, when non-empty).
// Caller holds st.mu.
func (s *Server) terminalSessionLocked(st *sessionEntry, extra, status string) {
	if s.jnl == nil {
		return
	}
	for _, e := range st.entries {
		s.journalTerminal(e, status)
	}
	st.entries = nil
	if extra != "" {
		s.journalTerminal(extra, status)
	}
}

// proxySession relays a session request to the session ID's ring owner.
// Returns false when the request should be handled locally: single-node
// mode, this node owns the ID, the hop budget is spent, or the owner is
// down/unreachable (sessions degrade to the node that has them — or, for
// creates, to the node that accepted them — rather than erroring).
func (s *Server) proxySession(w http.ResponseWriter, r *http.Request, sid string, body []byte) bool {
	if s.cl == nil {
		return false
	}
	owner, isSelf := s.cl.Owner(sid)
	if isSelf {
		return false
	}
	hops := cluster.Hops(r.Header)
	if hops >= s.cl.MaxHops() || !s.cl.Healthy(owner) {
		return false
	}
	ctx := r.Context()
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	status, respBody, err := s.cl.Proxy(ctx, owner, r.Method, r.URL.Path, RequestID(r.Context()), sid, hops, body)
	if err != nil {
		s.log.Warn("session proxy failed, handling locally",
			"owner", owner, "session", sid, "err", err)
		return false
	}
	s.metrics.routes.Add(routeForwarded, 1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(respBody)
	return true
}

// replaySessionRecord rebuilds session state from one pending journal
// record at startup. Creates resynthesize (deterministically, so the
// replayed session pins byte-identical state); fault reports re-apply
// their repairs in file order. Fault injection is deliberately not
// threaded into replayed repairs: the record describes a report the
// service already accepted, and replay must reconverge, not re-roll the
// chaos dice.
func (s *Server) replaySessionRecord(rec journal.Record) {
	sid, kind, ok := parseSessionLabel(rec.Label)
	if !ok {
		s.log.Warn("journal replay: malformed session label", "entry", rec.ID, "label", rec.Label)
		s.journalTerminal(rec.ID, "unreplayable")
		return
	}
	switch kind {
	case "c":
		var sreq SynthesizeRequest
		req, err := func() (*request, error) {
			dec := json.NewDecoder(bytes.NewReader(rec.Request))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&sreq); err != nil {
				return nil, err
			}
			return resolve(&sreq)
		}()
		if err != nil {
			s.log.Warn("journal replay: unreplayable session create", "entry", rec.ID, "err", err)
			s.journalTerminal(rec.ID, "unreplayable")
			return
		}
		st, _, err := s.openSession(context.Background(), sid, req, s.newRecorder("", ""))
		if err != nil {
			s.log.Warn("journal replay: session create failed", "entry", rec.ID, "err", err)
			s.journalTerminal(rec.ID, "unreplayable")
			return
		}
		st.entries = append(st.entries, rec.ID)
		s.smu.Lock()
		s.sessions[sid] = st
		s.smu.Unlock()
		s.metrics.sessionsOpened.Add(1)
		s.metrics.sessionsLive.Add(1)
		s.replayed.Add(1)
		s.log.Info("journal replay: session restored", "entry", rec.ID, "session", sid)

	case "f":
		st := s.session(sid)
		if st == nil {
			s.log.Warn("journal replay: fault report for unknown session", "entry", rec.ID, "session", sid)
			s.journalTerminal(rec.ID, "unreplayable")
			return
		}
		var fr session.FaultReport
		dec := json.NewDecoder(bytes.NewReader(rec.Request))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&fr); err != nil {
			s.log.Warn("journal replay: unreplayable fault report", "entry", rec.ID, "err", err)
			s.journalTerminal(rec.ID, "unreplayable")
			return
		}
		st.mu.Lock()
		prevCells := st.cells
		rd, err := st.sess.Repair(obs.Into(context.Background(), obs.New(s.agg)), fr)
		switch {
		case err == nil:
			st.entries = append(st.entries, rec.ID)
			st.cells = rd.CellsLost
			st.mu.Unlock()
			s.metrics.sessionCells.Add(int64(rd.CellsLost - prevCells))
			s.metrics.sessionRepairs.Add(rd.Outcome, 1)
			s.replayed.Add(1)
			s.log.Info("journal replay: repair re-applied",
				"entry", rec.ID, "session", sid, "rung", rd.Rung, "outcome", rd.Outcome)
		case errors.Is(err, session.ErrAbandoned):
			st.cells = rd.CellsLost
			s.terminalSessionLocked(st, rec.ID, "abandoned")
			st.mu.Unlock()
			s.metrics.sessionCells.Add(int64(rd.CellsLost - prevCells))
			s.metrics.sessionRepairs.Add(session.OutcomeAbandoned, 1)
			s.metrics.sessionsLive.Add(-1)
			s.replayed.Add(1)
			s.retireSession(st)
		default:
			st.mu.Unlock()
			s.log.Warn("journal replay: repair failed", "entry", rec.ID, "session", sid, "err", err)
			s.journalTerminal(rec.ID, "unreplayable")
		}

	default:
		s.journalTerminal(rec.ID, "unreplayable")
	}
}
