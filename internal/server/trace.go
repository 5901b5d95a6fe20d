package server

import (
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobq"
	"repro/internal/obs"
)

// trace.go: the serving-layer half of request tracing — recorder
// construction per request, sealing a job's timeline into its result,
// the flight recorder and SLO accounting at every terminal transition,
// and the /v1/jobs/{id}/trace and /debug/requests endpoints.
//
// Everything here runs outside the synthesis pipeline. The pipeline's
// determinism contract (byte-identical solutions, traced or not) is
// enforced by obs_trace_test.go at the repo root.

// nodeEntropy returns a short random hex string that makes this
// process's span-ID prefixes unique across the cluster. Falling back to
// the clock keeps the server starting even without an entropy source.
func nodeEntropy() string {
	var b [4]byte
	if _, err := crand.Read(b[:]); err != nil {
		return fmt.Sprintf("%08x", uint32(time.Now().UnixNano()))
	}
	return hex.EncodeToString(b[:])
}

// newRecorder starts a span recorder for one request. An empty traceID
// mints a fresh trace (a client-originated request); a non-empty one
// joins the inbound trace (a forwarded request).
func (s *Server) newRecorder(traceID, parentSpan string) *obs.SpanRecorder {
	prefix := s.entropy + "-" + strconv.FormatUint(s.traceSeq.Add(1), 10)
	if traceID == "" {
		traceID = "t-" + prefix
	}
	return obs.NewSpanRecorder(traceID, parentSpan, s.node, prefix)
}

// requestRecorder builds the recorder for an inbound HTTP request from
// its (sanitized) trace headers.
func (s *Server) requestRecorder(r *http.Request) *obs.SpanRecorder {
	return s.newRecorder(
		sanitizeID(r.Header.Get(cluster.HeaderTraceID)),
		sanitizeID(r.Header.Get(cluster.HeaderParentSpan)))
}

// seal closes the request's root span with the route taken and moves
// the finished timeline into the job result, where /v1/jobs/{id} and
// the trace endpoint serve it from.
func (s *Server) seal(rec *obs.SpanRecorder, res *jobResult, route string) {
	if rec == nil || res == nil {
		return
	}
	rec.CloseRoot(route)
	res.trace = rec.TraceID()
	res.route = route
	res.spans = rec.Spans()
	s.spansTotal.Add(int64(len(res.spans)))
	s.metrics.routes.Add(route, 1)
}

// recordServed accounts a request the handler answered in-line (cache
// or peer hit): its latency is the handler latency, and the terminal
// observer skips cached results so nothing double-counts.
func (s *Server) recordServed(id string, rec *obs.SpanRecorder, route string, start time.Time) {
	d := time.Since(start)
	s.slo.Observe(d)
	s.flight.Record(obs.RequestRecord{
		ID: id, TraceID: rec.TraceID(), Time: time.Now(),
		DurMs: msf(d), Outcome: string(jobq.Done), Route: route, Cached: true,
	})
}

// recordDropped accounts a request refused before any job ran: rejected
// (429 backpressure) or shed (503 breaker). Both burn SLO budget — the
// client got no answer within any target.
func (s *Server) recordDropped(id string, rec *obs.SpanRecorder, outcome string, start time.Time) {
	rec.CloseRoot(outcome)
	s.slo.Fail()
	s.flight.Record(obs.RequestRecord{
		ID: id, TraceID: rec.TraceID(), Time: time.Now(),
		DurMs: msf(time.Since(start)), Outcome: outcome,
	})
}

// recordTerminal is the OnTerminal half of the flight recorder and SLO
// accounting: every queued job (local synthesis, forward, fallback)
// lands here exactly once. Cache and peer hits were recorded by the
// handler (recordServed) when their Complete() fired this observer, so
// they are skipped.
func (s *Server) recordTerminal(j jobq.Job) {
	res, _ := j.Result.(*jobResult)
	if res != nil && res.cached {
		return
	}
	d := j.Finished.Sub(j.Created)
	if j.Status == jobq.Done {
		s.slo.Observe(d)
	} else {
		s.slo.Fail()
	}
	rr := obs.RequestRecord{
		ID: j.Label, Time: j.Finished, DurMs: msf(d),
		Outcome: string(j.Status), QueueMs: msf(j.Wait()), Error: j.Err,
	}
	if res != nil {
		rr.TraceID = res.trace
		rr.Route = res.route
		rr.ScheduleMs = msf(res.stages.Schedule)
		rr.PlaceMs = msf(res.stages.Place)
		rr.RouteMs = msf(res.stages.Route)
		for _, dg := range res.degradations {
			rr.Degradations = append(rr.Degradations, dg.Stage+"/"+dg.Event)
		}
	}
	s.flight.Record(rr)
}

// handleJobTrace serves a finished job's merged timeline. The default
// rendering is a Chrome/Perfetto trace document with one process track
// per node; ?raw=1 returns the span list as JSON instead.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.q.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	res, ok := j.Result.(*jobResult)
	if !ok {
		writeErr(w, http.StatusConflict, "job %q is %s: no trace available", id, j.Status)
		return
	}
	if len(res.spans) == 0 {
		writeErr(w, http.StatusNotFound, "job %q recorded no spans", id)
		return
	}
	if r.URL.Query().Get("raw") != "" {
		writeJSON(w, http.StatusOK, map[string]any{
			"trace_id": res.trace, "route": res.route, "spans": res.spans,
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := obs.ChromeTrace(w, res.spans); err != nil {
		s.log.Warn("trace render failed", "job", id, "err", err)
	}
}

// handleDebugRequests serves the flight recorder: the most recent
// completed requests (?n= bounds the count) or, with ?slowest=N, the N
// slowest retained.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if v := r.URL.Query().Get("slowest"); v != "" {
		n, _ := strconv.Atoi(v)
		if n <= 0 {
			n = 10
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"total": s.flight.Total(), "slowest": s.flight.Slowest(n),
		})
		return
	}
	n, _ := strconv.Atoi(r.URL.Query().Get("n"))
	writeJSON(w, http.StatusOK, map[string]any{
		"total": s.flight.Total(), "records": s.flight.Snapshot(n),
	})
}

// DumpFlight writes the flight recorder's retained records (newest
// first) as indented JSON — the SIGQUIT postmortem dump.
func (s *Server) DumpFlight(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"total":   s.flight.Total(),
		"records": s.flight.Snapshot(0),
	})
}

// msf converts a duration to fractional milliseconds.
func msf(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
