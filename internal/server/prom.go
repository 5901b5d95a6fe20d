package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/session"
)

// prom.go is the service's one metrics renderer: it writes the
// Prometheus text exposition format (version 0.0.4), served at
// GET /metrics, so a stock Prometheus scrape — or promtool check
// metrics — works against mfserved without an adapter. Nothing is
// copied into a registry first: each scrape reads every counter from the
// layer that owns it — the queue's monotonic job totals, the cache, the
// obs.Aggregate event sink, the cluster's per-peer counters, the SLO
// set, and the serving counters in metrics.go.

// promFloat formats a sample value; Prometheus accepts Go's shortest
// round-trip representation including exponents.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// breakerOpenGauge collapses the breaker's state string into a 0/1
// gauge: the alerting question is "are we shedding load", and both open
// and half-open mean the queue recently was overwhelmed.
func breakerOpenGauge(state string) float64 {
	if state == "open" || state == "half-open" {
		return 1
	}
	return 0
}

// promWriter accumulates one exposition. Metric families must be written
// contiguously (HELP, TYPE, then every series of the family).
type promWriter struct{ b strings.Builder }

func (p *promWriter) head(name, help, typ string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) sample(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(&p.b, "%s%s %s\n", name, labels, promFloat(v))
}

func (p *promWriter) gauge(name, help string, v float64) {
	p.head(name, help, "gauge")
	p.sample(name, "", v)
}

func (p *promWriter) counter(name, help string, v float64) {
	p.head(name, help, "counter")
	p.sample(name, "", v)
}

// histogram writes one histogram family. labels carries extra label
// pairs (e.g. `stage="place"`) applied to every series; bucket bounds
// are converted from the internal milliseconds to seconds, the
// Prometheus base unit.
func (p *promWriter) histogram(name, labels string, snap histSnapshot) {
	for i, bound := range histBounds {
		le := `le="` + promFloat(bound/1000) + `"`
		if labels != "" {
			le = labels + "," + le
		}
		p.sample(name+"_bucket", le, float64(snap.cumulative[i]))
	}
	inf := `le="+Inf"`
	if labels != "" {
		inf = labels + "," + inf
	}
	p.sample(name+"_bucket", inf, float64(snap.count))
	p.sample(name+"_sum", labels, snap.sumMs/1000)
	p.sample(name+"_count", labels, float64(snap.count))
}

func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	var p promWriter
	qs := s.q.Stats()
	cs := s.cache.Stats()

	p.gauge("mfserved_uptime_seconds", "Seconds since the server started.", time.Since(s.start).Seconds())
	p.gauge("mfserved_queue_depth", "Jobs waiting in the FIFO.", float64(qs.Queued))
	p.gauge("mfserved_queue_capacity", "Queued jobs beyond which submissions get 429.", float64(qs.Capacity))
	p.gauge("mfserved_workers", "Synthesis worker-pool size.", float64(qs.Workers))
	p.gauge("mfserved_workers_busy", "Workers currently executing a job.", float64(qs.Busy))

	p.head("mfserved_jobs_finished_total", "Jobs that reached a terminal status, by status.", "counter")
	p.sample("mfserved_jobs_finished_total", `status="done"`, float64(qs.DoneTotal))
	p.sample("mfserved_jobs_finished_total", `status="failed"`, float64(qs.FailedTotal))
	p.sample("mfserved_jobs_finished_total", `status="canceled"`, float64(qs.CanceledTotal))
	p.counter("mfserved_jobs_accepted_total", "Synthesis submissions accepted into the queue.", float64(s.metrics.jobsAccepted.Load()))
	p.counter("mfserved_jobs_rejected_total", "Synthesis submissions rejected with 429 (queue full).", float64(s.metrics.jobsRejected.Load()))
	p.counter("mfserved_jobs_shed_total", "Synthesis submissions shed with 503 by the open circuit breaker.", float64(s.metrics.jobsShed.Load()))
	p.gauge("mfserved_breaker_open", "1 while the load-shedding circuit breaker is open or half-open, 0 otherwise.", breakerOpenGauge(s.brk.State()))
	p.counter("mfserved_journal_replayed_total", "Jobs resubmitted from the crash-safe journal at startup.", float64(s.replayed.Load()))

	p.counter("mfserved_batch_requests_total", "POST /v1/synthesize/batch calls.", float64(s.metrics.batchRequests.Load()))
	p.counter("mfserved_batch_members_total", "Batch members received across all batch calls.", float64(s.metrics.batchMembers.Load()))
	p.counter("mfserved_batch_members_deduped_total", "Batch members collapsed onto an earlier member's job by cache-key dedupe.", float64(s.metrics.batchDeduped.Load()))

	// Per-profile workload attribution, only once a client has tagged
	// traffic with X-Workload-Profile, so an untagged scrape stays
	// byte-stable with earlier releases. The snapshot is sorted by label,
	// keeping the exposition deterministic.
	if rows := s.metrics.workload.Snapshot(); len(rows) > 0 {
		p.head("mfserved_workload_requests_total", "Synthesis requests by client-declared workload profile.", "counter")
		for _, row := range rows {
			p.sample("mfserved_workload_requests_total", `profile="`+row.Label+`"`, float64(row.Value))
		}
	}

	p.counter("mfserved_cache_hits_total", "Solution-cache hits.", float64(cs.Hits))
	p.counter("mfserved_cache_misses_total", "Solution-cache misses.", float64(cs.Misses))
	p.gauge("mfserved_cache_entries", "Solutions currently cached.", float64(cs.Entries))
	p.gauge("mfserved_cache_bytes", "Bytes held by the solution cache.", float64(cs.Bytes))

	// Algorithm telemetry folded from the obs event stream of every job.
	a := s.agg
	p.head("mfserved_schedule_bindings_total", "Algorithm 1 binding decisions, by case.", "counter")
	p.sample("mfserved_schedule_bindings_total", `case="1"`, float64(a.BindCaseI.Load()))
	p.sample("mfserved_schedule_bindings_total", `case="2"`, float64(a.BindCaseII.Load()))
	p.counter("mfserved_schedule_wash_avoided_seconds_total", "Component wash time eliminated by Case I in-place consumption.", float64(a.WashAvoidedMs.Load())/1000)
	p.counter("mfserved_sa_steps_total", "Simulated-annealing temperature steps.", float64(a.SASteps.Load()))
	p.counter("mfserved_sa_moves_total", "Simulated-annealing moves sampled.", float64(a.SAMoves.Load()))
	p.counter("mfserved_sa_accepted_total", "Simulated-annealing moves accepted.", float64(a.SAAccepted.Load()))
	p.counter("mfserved_route_tasks_total", "Transportation tasks routed.", float64(a.RouteTasks.Load()))
	p.counter("mfserved_astar_expanded_total", "A* nodes expanded across all routed tasks.", float64(a.AStarExpanded.Load()))
	p.counter("mfserved_route_slot_conflicts_total", "Cell probes rejected by time-slot overlap.", float64(a.SlotConflicts.Load()))
	p.gauge("mfserved_astar_heap_peak", "Largest A* open-heap size seen by any task.", float64(a.HeapPeak.Load()))
	p.counter("mfserved_route_dilations_total", "Placement dilations triggered by routing congestion.", float64(a.Dilations.Load()))
	p.counter("mfserved_place_retries_total", "Placement retries after unresolvable congestion.", float64(a.PlaceRetries.Load()))

	// Opt-in multicore modes: parallel tempering and wave routing.
	p.gauge("mfserved_temper_replicas", "Widest parallel-tempering replica ladder run so far.", float64(a.TemperReplicas.Load()))
	p.counter("mfserved_temper_rounds_total", "Parallel-tempering rounds (barrier-synced step+swap phases).", float64(a.TemperRounds.Load()))
	p.counter("mfserved_temper_swaps_total", "Accepted replica configuration swaps between adjacent rungs.", float64(a.TemperSwaps.Load()))
	p.counter("mfserved_route_waves_total", "Multi-task routing waves executed in parallel.", float64(a.RouteWaves.Load()))
	p.gauge("mfserved_route_wave_width_peak", "Widest routing wave (parallelism width) seen by any job.", float64(a.RouteWaveWidth.Load()))
	p.counter("mfserved_route_spec_accepted_total", "Speculative wave paths accepted at commit time.", float64(a.RouteSpecOK.Load()))
	p.counter("mfserved_route_spec_rerouted_total", "Speculative wave paths invalidated and re-routed sequentially.", float64(a.RouteSpecMiss.Load()))

	p.head("mfserved_stage_latency_seconds", "Per-stage synthesis latency (cache misses only).", "histogram")
	p.histogram("mfserved_stage_latency_seconds", `stage="schedule"`, s.metrics.histSchedule.snapshot())
	p.histogram("mfserved_stage_latency_seconds", `stage="place"`, s.metrics.histPlace.snapshot())
	p.histogram("mfserved_stage_latency_seconds", `stage="route"`, s.metrics.histRoute.snapshot())
	p.head("mfserved_synthesis_latency_seconds", "End-to-end synthesis latency (cache misses only).", "histogram")
	p.histogram("mfserved_synthesis_latency_seconds", "", s.metrics.histTotal.snapshot())
	p.head("mfserved_request_latency_seconds", "POST /v1/synthesize handler latency.", "histogram")
	p.histogram("mfserved_request_latency_seconds", "", s.metrics.histRequest.snapshot())

	// Cluster families, only in cluster mode so a single-node scrape
	// stays byte-stable with earlier releases.
	if s.cl != nil {
		p.gauge("mfserved_cluster_members", "Configured cluster members (alive or not).", float64(len(s.cl.Members())))
		p.gauge("mfserved_cluster_detached_jobs", "Forward jobs currently running detached from the worker pool.", float64(qs.Detached))
		p.counter("mfserved_cluster_peer_served_total", "Peer-cache lookups this node answered with a solution.", float64(s.metrics.peerServed.Load()))
		p.counter("mfserved_cluster_peer_stored_total", "Write-back solutions this node accepted from siblings.", float64(s.metrics.peerStored.Load()))

		stats := s.cl.PeerStats()
		peerLabel := func(ps cluster.PeerStats) string { return `peer="` + ps.Peer + `"` }
		p.head("mfserved_cluster_peer_up", "1 while the peer answers health probes, 0 while marked down.", "gauge")
		for _, ps := range stats {
			up := 0.0
			if ps.Up {
				up = 1
			}
			p.sample("mfserved_cluster_peer_up", peerLabel(ps), up)
		}
		p.head("mfserved_cluster_forwards_total", "Synthesis forwards to the ring owner, by outcome.", "counter")
		for _, ps := range stats {
			p.sample("mfserved_cluster_forwards_total", peerLabel(ps)+`,outcome="ok"`, float64(ps.ForwardOK))
			p.sample("mfserved_cluster_forwards_total", peerLabel(ps)+`,outcome="fallback"`, float64(ps.ForwardFail))
		}
		p.head("mfserved_cluster_peer_lookups_total", "Read-through peer-cache lookups, by result.", "counter")
		for _, ps := range stats {
			p.sample("mfserved_cluster_peer_lookups_total", peerLabel(ps)+`,result="hit"`, float64(ps.PeerHits))
			p.sample("mfserved_cluster_peer_lookups_total", peerLabel(ps)+`,result="miss"`, float64(ps.PeerMisses))
			p.sample("mfserved_cluster_peer_lookups_total", peerLabel(ps)+`,result="error"`, float64(ps.PeerErrors))
		}
		p.head("mfserved_cluster_probes_total", "Health probes, by result.", "counter")
		for _, ps := range stats {
			p.sample("mfserved_cluster_probes_total", peerLabel(ps)+`,result="ok"`, float64(ps.ProbeOK))
			p.sample("mfserved_cluster_probes_total", peerLabel(ps)+`,result="fail"`, float64(ps.ProbeFail))
		}
		p.head("mfserved_cluster_writebacks_total", "Solutions written back to their ring owner after a local fallback.", "counter")
		for _, ps := range stats {
			p.sample("mfserved_cluster_writebacks_total", peerLabel(ps), float64(ps.WriteBacks))
		}

		// Request-tracing families ride the cluster gate: they exist for
		// the cross-node timeline, and gating keeps a single-node scrape
		// byte-stable with earlier releases.
		p.counter("mfserved_trace_spans_total", "Trace spans recorded across all requests.", float64(s.spansTotal.Load()))
		p.counter("mfserved_flight_records_total", "Requests recorded by the flight recorder (monotonic; the ring retains the most recent).", float64(s.flight.Total()))
		routes := []string{routeCacheHit, routePeerHit, routeLocal, routeForwarded, routeFallback}
		if s.metrics.sessionsOpened.Load() > 0 {
			// Session routes appear only once session traffic exists, so a
			// sessionless cluster scrape stays byte-stable with earlier
			// releases.
			routes = append(routes, routeSession, routeSessionRepair)
		}
		p.head("mfserved_requests_routed_total", "Answered requests by the route that produced the response.", "counter")
		for _, route := range routes {
			p.sample("mfserved_requests_routed_total", `route="`+route+`"`, float64(s.metrics.routes.Value(route)))
		}
	}

	// Chip-session families, only once a session has been opened, so the
	// default single-node scrape stays byte-stable with earlier releases.
	if s.metrics.sessionsOpened.Load() > 0 {
		p.counter("mfserved_sessions_opened_total", "Chip sessions opened (including journal-replayed ones).", float64(s.metrics.sessionsOpened.Load()))
		p.gauge("mfserved_sessions_open", "Chip sessions currently active.", float64(s.metrics.sessionsLive.Load()))
		p.head("mfserved_session_repairs_total", "Session fault-report repairs, by outcome.", "counter")
		for _, oc := range []string{session.OutcomeRepaired, session.OutcomeDegraded, session.OutcomeAbandoned} {
			p.sample("mfserved_session_repairs_total", `outcome="`+oc+`"`, float64(s.metrics.sessionRepairs.Value(oc)))
		}
		p.head("mfserved_session_repair_latency_seconds", "Fault-report repair latency (ladder plus audit).", "histogram")
		p.histogram("mfserved_session_repair_latency_seconds", "", s.metrics.histRepair.snapshot())
		p.gauge("mfserved_session_cells_lost", "Dead routing-plane cells accumulated across all sessions.", float64(s.metrics.sessionCells.Load()))
	}

	// SLO families, only when objectives are configured (-slo), so the
	// default scrape stays byte-stable.
	if s.slo != nil {
		stats := s.slo.Stats()
		p.head("mfserved_slo_requests_total", "Terminal requests graded against each latency objective.", "counter")
		for _, st := range stats {
			p.sample("mfserved_slo_requests_total", `objective="`+st.Name+`",result="good"`, float64(st.Good))
			p.sample("mfserved_slo_requests_total", `objective="`+st.Name+`",result="bad"`, float64(st.Bad))
		}
		p.head("mfserved_slo_target_seconds", "Each objective's latency target.", "gauge")
		for _, st := range stats {
			p.sample("mfserved_slo_target_seconds", `objective="`+st.Name+`"`, st.TargetMs/1000)
		}
		p.head("mfserved_slo_attainment_ratio", "Fraction of graded requests within each objective's target (1.0 with no traffic).", "gauge")
		for _, st := range stats {
			p.sample("mfserved_slo_attainment_ratio", `objective="`+st.Name+`"`, st.Attainment)
		}
		p.head("mfserved_slo_burn_rate", "Error-budget burn rate per objective: bad fraction over (1 - quantile); sustained >1 violates the SLO.", "gauge")
		for _, st := range stats {
			p.sample("mfserved_slo_burn_rate", `objective="`+st.Name+`"`, st.BurnRate)
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(p.b.String()))
}
