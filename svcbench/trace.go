package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/solcache"
	"repro/internal/solio"
)

// trace.go: the traced run. It replays the e2e run's requests in order,
// sequentially, in this process and without HTTP: each request goes
// through an in-process server's handler, and the layer calls that
// handler (or its worker) makes are then made directly, each inside a
// span. Spans are recorded here, around public calls — the program
// itself is not instrumented for this.

// span is one timed call. Spans of one request share Req; a request's
// root span has Parent -1.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
	Failed bool   `json:"failed,omitempty"`
	// InHandler marks a direct call that mirrors one the request's HTTP
	// handler makes inline, so handler self time excludes it.
	InHandler bool `json:"in_handler,omitempty"`
	// Allocs and Bytes are the heap objects and bytes the process
	// allocated during the call, read outside its interval.
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.t0)) }

// call runs fn inside a new span. The allocation counters are read
// before the span starts and after it ends, so reading them (which stops
// the world) adds nothing to the span's time.
func (t *tracer) call(req, parent int, name string, inHandler bool, fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := len(t.spans)
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Name: name, InHandler: inHandler, Start: t.at(time.Now())})
	err := fn()
	t.spans[id].End = t.at(time.Now())
	runtime.ReadMemStats(&m1)
	t.spans[id].Failed = err != nil
	t.spans[id].Allocs = m1.Mallocs - m0.Mallocs
	t.spans[id].Bytes = m1.TotalAlloc - m0.TotalAlloc
	return err
}

// add records a span whose interval is already known.
func (t *tracer) add(req, parent int, name string, start int64, d time.Duration) {
	t.spans = append(t.spans, span{Req: req, ID: len(t.spans), Parent: parent, Name: name, Start: start, End: start + int64(d)})
}

// tracedRun is the state of one traced replay.
type tracedRun struct {
	in    *inputs
	e2e   *e2eResult
	tr    tracer
	agg   obs.Aggregate
	cache *solcache.Cache
	jnl   *journal.Journal
	srv   *server.Server

	jobs     int // jobs the replayed requests complete in the server
	repairs  map[string]int
	rungs    map[string]int
	docBytes []float64
	problems []string
}

func (t *tracedRun) problem(format string, args ...any) {
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// runTraced replays the e2e run's inputs with spans around every layer
// call. The journals it appends to are scratch files.
func runTraced(ctx context.Context, in *inputs, e2e *e2eResult, scratch string) (*tracedRun, error) {
	t := &tracedRun{in: in, e2e: e2e, cache: solcache.New(256 << 20),
		repairs: map[string]int{}, rungs: map[string]int{}}
	jpath := filepath.Join(scratch, "trace.journal")
	spath := filepath.Join(scratch, "trace-server.journal")
	for _, p := range []string{jpath, spath} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	jnl, _, _, err := journal.Open(jpath)
	if err != nil {
		return nil, err
	}
	t.jnl = jnl
	defer jnl.Close()
	cfg := server.Config{JournalPath: spath}
	if in.Workload == serveCold {
		// The handler path of a cold request ends at the submit; the
		// synthesis is replayed directly below, so the in-process
		// server's own copy is cut off at its first deadline poll.
		cfg.JobTimeout = time.Nanosecond
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	t.srv = srv
	defer srv.Shutdown(context.WithoutCancel(ctx))

	if in.Workload != serveCold {
		if err := t.prefill(); err != nil {
			return nil, err
		}
	}
	t.tr.t0 = time.Now()
	switch in.Workload {
	case serveCold:
		for i := range e2e.Ops {
			if err := t.cold(ctx, i); err != nil {
				return nil, err
			}
		}
	case serveWarm:
		for i := range e2e.Ops {
			t.warm(i)
		}
	case sessionRepair:
		per := 2 + faultsPerSession
		for i, si := range in.Sessions {
			if err := t.session(ctx, i*per, si); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// serve sends one request through the in-process handler, in a span.
func (t *tracedRun) serve(req, parent int, method, path string, body []byte, want int) []byte {
	w := httptest.NewRecorder()
	r := httptest.NewRequest(method, path, bytes.NewReader(body))
	_ = t.tr.call(req, parent, "server.handle", false, func() error {
		t.srv.Handler().ServeHTTP(w, r)
		if w.Code != want {
			return fmt.Errorf("%s %s: %d", method, path, w.Code)
		}
		return nil
	})
	if w.Code != want {
		t.problem("traced %s %s: HTTP %d, want %d: %s", method, path, w.Code, want, bytes.TrimSpace(w.Body.Bytes()))
	}
	return w.Body.Bytes()
}

// prefill loads the working set into the in-process server (through its
// handler) and into the directly driven cache, untraced.
func (t *tracedRun) prefill() error {
	for _, ri := range t.in.Setup {
		body := t.serve(-1, -1, http.MethodPost, "/v1/synthesize", t.in.Reqs[ri].Body, http.StatusAccepted)
		j, err := t.awaitJob(body)
		if err != nil {
			return fmt.Errorf("traced prefill: %w", err)
		}
		if j.Status != "done" || j.Key != t.e2e.PrefillKey[ri] {
			return fmt.Errorf("traced prefill of %s: %s key %s, e2e key %s", t.in.Reqs[ri].Name, j.Status, j.Key, t.e2e.PrefillKey[ri])
		}
		t.cache.Put(t.e2e.PrefillKey[ri], t.e2e.PrefillDoc[ri])
	}
	t.tr.spans = t.tr.spans[:0]
	return nil
}

// awaitJob polls the in-process server, untraced, until the job a
// submit response names is terminal.
func (t *tracedRun) awaitJob(submit []byte) (jobRecord, error) {
	var j jobRecord
	id, err := jobID(submit)
	if err != nil {
		return j, err
	}
	for {
		w := httptest.NewRecorder()
		t.srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
		if err := json.Unmarshal(w.Body.Bytes(), &j); err != nil {
			return j, err
		}
		if terminal(j.Status) {
			return j, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// root opens request i's root span and returns its ID; endRoot closes it.
func (t *tracedRun) root(i int) int {
	t.tr.spans = append(t.tr.spans, span{Req: i, ID: len(t.tr.spans), Parent: -1, Name: "request", Start: t.tr.at(time.Now())})
	return len(t.tr.spans) - 1
}

func (t *tracedRun) endRoot(id int) { t.tr.spans[id].End = t.tr.at(time.Now()) }

// cold replays serve-cold request i: the handler (decode, key, cache
// miss, journal accept, submit), then the worker's path — synthesis with
// algorithm telemetry, encode, cache insert, journal terminal. A degraded
// synthesis audits itself inside core, so verify gets no span here.
func (t *tracedRun) cold(ctx context.Context, i int) error {
	op := &t.e2e.Ops[i]
	rq := t.in.Reqs[op.Req]
	root := t.root(i)
	defer t.endRoot(root)
	submit := t.serve(i, root, http.MethodPost, "/v1/synthesize", rq.Body, http.StatusAccepted)
	// Let the in-process worker give up on its copy before the direct
	// calls run, so they have the process to themselves.
	if _, err := t.awaitJob(submit); err != nil {
		return fmt.Errorf("traced %s: %w", rq.Name, err)
	}
	_ = t.tr.call(i, root, "solcache.get", true, func() error {
		if _, hit := t.cache.Get(op.Key); hit {
			return errors.New("hit on a cold key")
		}
		return nil
	})
	var entry string
	_ = t.tr.call(i, root, "journal.append", true, func() (err error) {
		entry, err = t.jnl.Accepted(fmt.Sprintf("t%06d", i), rq.Body)
		return err
	})
	var sol *core.Solution
	synth := len(t.tr.spans)
	err := t.tr.call(i, root, "core.synthesize", false, func() (err error) {
		sol, err = core.SynthesizeContext(obs.Into(ctx, obs.New(&t.agg)), rq.Graph, rq.Alloc, rq.Opts)
		return err
	})
	if err != nil {
		return fmt.Errorf("traced synthesis of %s: %w", rq.Name, err)
	}
	// Stage spans, laid end to end from the solution's own stage times.
	at := t.tr.spans[synth].Start
	for _, st := range []struct {
		name string
		d    time.Duration
	}{{"schedule.run", sol.Stages.Schedule}, {"place.run", sol.Stages.Place}, {"route.run", sol.Stages.Route}} {
		t.tr.add(i, synth, st.name, at, st.d)
		at += int64(st.d)
	}
	sol.CPU = 0
	var buf bytes.Buffer
	_ = t.tr.call(i, root, "solio.encode", false, func() error { return solio.Encode(&buf, sol) })
	doc := buf.Bytes()
	t.docBytes = append(t.docBytes, float64(len(doc)))
	if sv, ok := t.e2e.Served[op.Key]; ok && !bytes.Equal(sv.Doc, doc) {
		t.problem("traced %s: document %s, served %s", rq.Name, digest(doc), digest(sv.Doc))
	}
	_ = t.tr.call(i, root, "solcache.put", false, func() error { t.cache.Put(op.Key, doc); return nil })
	_ = t.tr.call(i, root, "journal.append", false, func() error { return t.jnl.Terminal(entry, "done") })
	t.jobs++
	return nil
}

// warm replays serve-warm request i: the handler's hit path — cache get,
// decode of the cached document, an already-completed job.
func (t *tracedRun) warm(i int) {
	op := &t.e2e.Ops[i]
	root := t.root(i)
	defer t.endRoot(root)
	t.serve(i, root, http.MethodPost, "/v1/synthesize", t.in.Reqs[op.Req].Body, http.StatusOK)
	var doc []byte
	_ = t.tr.call(i, root, "solcache.get", true, func() error {
		var hit bool
		if doc, hit = t.cache.Get(t.e2e.PrefillKey[op.Req]); !hit {
			return errors.New("miss on a working-set key")
		}
		return nil
	})
	t.docBytes = append(t.docBytes, float64(len(doc)))
	_ = t.tr.call(i, root, "solio.decode", true, func() error {
		_, err := solio.Decode(bytes.NewReader(doc))
		return err
	})
	t.jobs++
}

// session replays one scripted session whose e2e ops start at index
// first: open (journal accept, cache get, decode, session.New), each
// fault report (journal accept, repair; then an audit of the repaired
// solution), close (journal terminals).
func (t *tracedRun) session(ctx context.Context, first, si int) error {
	sc := &t.in.Scripts[si]
	rq := t.in.Reqs[sc.Base]
	key := t.e2e.PrefillKey[sc.Base]
	label := fmt.Sprintf("sess:t%06d", first)

	root := t.root(first)
	body := t.serve(first, root, http.MethodPost, "/v1/sessions", rq.Body, http.StatusCreated)
	var snap struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.endRoot(root)
		return fmt.Errorf("traced session open: %w", err)
	}
	entries := make([]string, 0, 1+len(sc.Faults))
	add := func(label string, body []byte) func() error {
		return func() error {
			e, err := t.jnl.Accepted(label, body)
			entries = append(entries, e)
			return err
		}
	}
	_ = t.tr.call(first, root, "journal.append", true, add(label+":c", rq.Body))
	var doc []byte
	_ = t.tr.call(first, root, "solcache.get", true, func() error {
		var hit bool
		if doc, hit = t.cache.Get(key); !hit {
			return errors.New("miss on a working-set key")
		}
		return nil
	})
	t.docBytes = append(t.docBytes, float64(len(doc)))
	var sol *core.Solution
	if err := t.tr.call(first, root, "solio.decode", true, func() (err error) {
		sol, err = solio.Decode(bytes.NewReader(doc))
		return err
	}); err != nil {
		t.endRoot(root)
		return fmt.Errorf("traced session decode: %w", err)
	}
	sol.Opts = rq.Opts
	var sess *session.Session
	if err := t.tr.call(first, root, "session.open", true, func() (err error) {
		sess, err = session.New(snap.ID, sol, rq.Alloc)
		return err
	}); err != nil {
		t.endRoot(root)
		return fmt.Errorf("traced session open: %w", err)
	}
	t.endRoot(root)

	for k, f := range sc.Faults {
		i := first + 1 + k
		root := t.root(i)
		t.serve(i, root, http.MethodPost, "/v1/sessions/"+snap.ID+"/faults", f.Body, http.StatusOK)
		_ = t.tr.call(i, root, "journal.append", true, add(label+":f", f.Body))
		var rec session.RepairRecord
		err := t.tr.call(i, root, "session.repair", true, func() (err error) {
			rec, err = sess.Repair(obs.Into(ctx, obs.New(&t.agg)), f.Report)
			return err
		})
		outcome := rec.Outcome
		if err != nil && errors.Is(err, session.ErrAbandoned) {
			outcome = session.OutcomeAbandoned
		}
		t.repairs[outcome]++
		t.rungs[rec.Rung]++
		if rec.Fingerprint != f.Fingerprint {
			t.problem("traced repair %d of %s: fingerprint %s, script %s", k, rq.Name, rec.Fingerprint, f.Fingerprint)
		}
		if err == nil {
			_ = t.tr.call(i, root, "verify.audit", false, func() error { return core.Audit(sess.Solution()).Err() })
		}
		t.endRoot(root)
	}

	i := first + 1 + len(sc.Faults)
	root = t.root(i)
	t.serve(i, root, http.MethodPost, "/v1/sessions/"+snap.ID+"/close", nil, http.StatusOK)
	sess.Close()
	for _, e := range entries {
		_ = t.tr.call(i, root, "journal.append", true, func() error { return t.jnl.Terminal(e, "done") })
	}
	t.endRoot(root)
	return nil
}

// writeSpans writes the span list as JSON.
func (t *tracedRun) writeSpans(path string) error {
	b, err := json.Marshal(t.tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerStat summarizes one layer's spans.
type layerStat struct {
	Calls    int
	Busy     time.Duration
	Self     time.Duration
	Failures int
	Durs     []float64 // µs per call
}

// layers folds spans into per-layer totals. A layer is the span name up
// to its first dot; self time subtracts the time child spans cover.
func (t *tracedRun) layers() map[string]*layerStat {
	child := make([]time.Duration, len(t.tr.spans))
	for _, s := range t.tr.spans {
		if s.Parent >= 0 && t.tr.spans[s.Parent].Name != "request" {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]*layerStat{}
	for _, s := range t.tr.spans {
		if s.Name == "request" {
			continue
		}
		name := s.Name
		if i := bytes.IndexByte([]byte(name), '.'); i > 0 {
			name = name[:i]
		}
		ls := out[name]
		if ls == nil {
			ls = &layerStat{}
			out[name] = ls
		}
		ls.Calls++
		ls.Busy += s.dur()
		ls.Self += s.dur() - child[s.ID]
		if s.Failed {
			ls.Failures++
		}
		ls.Durs = append(ls.Durs, float64(s.dur())/float64(time.Microsecond))
	}
	return out
}

// spanValues returns f of every span called name.
func (t *tracedRun) spanValues(name string, f func(*span) float64) []float64 {
	var out []float64
	for i := range t.tr.spans {
		if s := &t.tr.spans[i]; s.Name == name {
			out = append(out, f(s))
		}
	}
	return out
}

// spanUS, spanAllocs and spanBytes are a span's duration in µs and the
// heap objects and bytes allocated during it.
func spanUS(s *span) float64     { return float64(s.dur()) / float64(time.Microsecond) }
func spanAllocs(s *span) float64 { return float64(s.Allocs) }
func spanBytes(s *span) float64  { return float64(s.Bytes) }

// perRequest returns, per request, the handler time, the handler's self
// time (minus the direct calls it mirrors) and the layer sum a request's
// latency is made of.
func (t *tracedRun) perRequest() (handle, self, layerSum map[int]time.Duration) {
	handle, self, layerSum = map[int]time.Duration{}, map[int]time.Duration{}, map[int]time.Duration{}
	for _, s := range t.tr.spans {
		if s.Req < 0 {
			continue
		}
		switch {
		case s.Name == "server.handle":
			handle[s.Req] += s.dur()
			self[s.Req] += s.dur()
			layerSum[s.Req] += s.dur()
		case s.InHandler:
			self[s.Req] -= s.dur()
		case s.Parent >= 0 && t.tr.spans[s.Parent].Name == "request" && t.in.Workload == serveCold && s.Name != "journal.append":
			// The worker's share of a cold request: synthesis, encode,
			// cache insert (its terminal journal write comes after the
			// job's finished stamp).
			layerSum[s.Req] += s.dur()
		}
	}
	// A queued job also waits in the queue: taken from the e2e job record.
	if t.in.Workload == serveCold {
		for i := range t.e2e.Ops {
			if o := &t.e2e.Ops[i]; o.ok() {
				layerSum[i] += o.Started.Sub(o.Created)
			}
		}
	}
	return handle, self, layerSum
}

// sortedKeys is a deterministic iteration order for summaries.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
