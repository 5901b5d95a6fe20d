package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/session"
)

// layers.go: the per-layer metrics of a traced run and the cross-check
// of its work counts against the e2e run's /metrics deltas.

// layerMetrics computes every per-layer metric. A layer that did no work
// on the workload reads 0; a percentile its samples cannot support is
// left out and named on standard error.
func layerMetrics(t *tracedRun, res *e2eResult) map[string]metric {
	m := map[string]metric{}
	pct := func(name string, xs []float64, permille int, scale float64, unit string) {
		if len(xs) == 0 {
			m[name] = metric{0, unit}
			return
		}
		v, err := percentile(xs, permille)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svcbench: %s not reported: %v\n", name, err)
			return
		}
		m[name] = metric{v * scale, unit}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	const us, ms = 1, 1e-3 // span durations are in µs

	// server
	handle, self, layerSum := t.perRequest()
	var handles, selfs, sums []float64
	for req, h := range handle {
		handles = append(handles, float64(h)/float64(time.Microsecond))
		selfs = append(selfs, float64(self[req])/float64(time.Microsecond))
		if res.Ops[req].latencyOp() {
			sums = append(sums, msf(layerSum[req]))
		}
	}
	pct("server.handle_us_p50", handles, 500, us, "us")
	pct("server.handle_allocs_p50", t.spanValues("server.handle", spanAllocs), 500, 1, "count")
	pct("server.self_us_p50", selfs, 500, us, "us")
	// Both p50s are whole-window nearest-rank, so the difference is time
	// no layer accounts for, not a gap between estimators.
	if e2e, err := percentile(res.Latency, 500); err == nil {
		if v, err := percentile(sums, 500); err == nil {
			m["server.unaccounted_ms_p50"] = metric{e2e - v, "ms"}
		}
	}

	// solcache, solio
	c := res.Counts
	pct("solcache.get_us_p50", t.spanValues("solcache.get", spanUS), 500, us, "us")
	pct("solcache.put_us_p50", t.spanValues("solcache.put", spanUS), 500, us, "us")
	m["solcache.hit_ratio"] = metric{ratio(c["count.cache_hits"], c["count.cache_hits"]+c["count.cache_misses"]), "ratio"}
	pct("solio.decode_us_p50", t.spanValues("solio.decode", spanUS), 500, us, "us")
	pct("solio.decode_allocs_p50", t.spanValues("solio.decode", spanAllocs), 500, 1, "count")
	pct("solio.encode_us_p50", t.spanValues("solio.encode", spanUS), 500, us, "us")
	m["solio.doc_kb_mean"] = metric{ratio(sum(t.docBytes), float64(len(t.docBytes))) / 1024, "KiB"}

	// jobq, from the e2e job records of queued jobs and cache hits.
	var waits, services []float64
	ops := 0
	for i := range res.Ops {
		o := &res.Ops[i]
		if o.latencyOp() {
			ops++
		}
		if o.ok() && o.Kind == opSynth {
			waits = append(waits, msf(o.Started.Sub(o.Created)))
			if t.in.Workload == serveCold {
				services = append(services, msf(o.Done.Sub(o.Started)))
			} else {
				services = append(services, 0) // a hit's record is created completed
			}
		}
	}
	pct("jobq.wait_ms_p50", waits, 500, 1, "ms")
	pct("jobq.wait_ms_p99", waits, 990, 1, "ms")
	pct("jobq.service_ms_p50", services, 500, 1, "ms")

	// journal
	pct("journal.append_us_p50", t.spanValues("journal.append", spanUS), 500, us, "us")
	m["journal.appends_per_op"] = metric{ratio(float64(res.JournalLines), float64(ops)), "count"}

	// core and its stages
	synth := t.spanValues("core.synthesize", spanUS)
	pct("core.synth_ms_p50", synth, 500, ms, "ms")
	pct("core.synth_ms_p99", synth, 990, ms, "ms")
	pct("core.synth_alloc_kb_p50", t.spanValues("core.synthesize", spanBytes), 500, 1.0/1024, "KiB")
	a := &t.agg
	pct("schedule.ms_p50", t.spanValues("schedule.run", spanUS), 500, ms, "ms")
	m["schedule.case1_bindings"] = metric{float64(a.BindCaseI.Load()), "count"}
	m["schedule.case2_bindings"] = metric{float64(a.BindCaseII.Load()), "count"}
	pct("place.ms_p50", t.spanValues("place.run", spanUS), 500, ms, "ms")
	m["place.busy_share"] = metric{ratio(sum(t.spanValues("place.run", spanUS)), sum(synth)), "ratio"}
	m["place.sa_moves"] = metric{float64(a.SAMoves.Load()), "count"}
	m["place.sa_accept_ratio"] = metric{ratio(float64(a.SAAccepted.Load()), float64(a.SAMoves.Load())), "ratio"}
	pct("route.ms_p50", t.spanValues("route.run", spanUS), 500, ms, "ms")
	m["route.tasks"] = metric{float64(a.RouteTasks.Load()), "count"}
	m["route.astar_expanded"] = metric{float64(a.AStarExpanded.Load()), "count"}
	m["route.slot_conflicts"] = metric{float64(a.SlotConflicts.Load()), "count"}
	m["route.dilations"] = metric{float64(a.Dilations.Load()), "count"}

	// session, verify
	pct("session.open_ms_p50", t.spanValues("session.open", spanUS), 500, ms, "ms")
	repairs := t.spanValues("session.repair", spanUS)
	pct("session.repair_ms_p50", repairs, 500, ms, "ms")
	pct("session.repair_ms_p99", repairs, 990, ms, "ms")
	for _, rung := range []string{session.RungReroute, session.RungReschedule, session.RungDilate, session.RungSA} {
		m["session.rung_"+rung] = metric{float64(t.rungs[rung]), "count"}
	}
	m["session.first_rung_ratio"] = metric{ratio(float64(t.rungs[session.RungReroute]), float64(len(repairs))), "ratio"}
	m["session.abandoned"] = metric{float64(t.repairs[session.OutcomeAbandoned]), "count"}
	pct("verify.audit_ms_p50", t.spanValues("verify.audit", spanUS), 500, ms, "ms")

	// The e2e run's MemStats and /metrics deltas, its tail latency, its
	// generator lateness and the host it ran on.
	m["mfserved.allocs_per_op"] = metric{ratio(res.Mem.Mallocs, float64(len(res.Latency))), "count"}
	m["mfserved.gc_cycles"] = metric{res.Mem.NumGC, "count"}
	for _, cd := range counterDeltas {
		m[cd.metric] = metric{c[cd.metric], "count"}
	}
	pct("client.latency_ms_p99", res.Latency, 990, 1, "ms")
	m["client.late_ms_max"] = metric{maxOf(res.Late), "ms"}
	pct("client.late_ms_p99", res.Late, 990, 1, "ms")
	m["host.steal_share"] = metric{res.Steal, "ratio"}
	m["host.calib_ms"] = metric{median(res.Calib), "ms"}
	return m
}

// crossCheck compares the traced run's own counts with the e2e run's
// /metrics deltas: both runs did the same work only if they agree.
func crossCheck(t *tracedRun, res *e2eResult) []string {
	c := res.Counts
	st := t.cache.Stats()
	a := &t.agg
	queued := 0.0
	if t.in.Workload == serveCold {
		queued = float64(t.jobs)
	}
	pairs := []struct {
		name          string
		traced, delta float64
	}{
		{"cache hits", float64(st.Hits), c["count.cache_hits"]},
		{"cache misses", float64(st.Misses), c["count.cache_misses"]},
		{"jobs accepted", queued, c["count.jobs_accepted"]},
		{"jobs finished", float64(t.jobs), c["count.jobs_finished"]},
		{"sa moves", float64(a.SAMoves.Load()), c["count.sa_moves"]},
		{"sa accepted", float64(a.SAAccepted.Load()), c["count.sa_accepted"]},
		{"a* expanded", float64(a.AStarExpanded.Load()), c["count.astar_expanded"]},
		{"route tasks", float64(a.RouteTasks.Load()), c["count.route_tasks"]},
		{"repairs repaired", float64(t.repairs[session.OutcomeRepaired]), c["count.repairs_repaired"]},
		{"repairs degraded", float64(t.repairs[session.OutcomeDegraded]), c["count.repairs_degraded"]},
		{"repairs abandoned", float64(t.repairs[session.OutcomeAbandoned]), c["count.repairs_abandoned"]},
	}
	var out []string
	for _, p := range pairs {
		if p.traced != p.delta {
			out = append(out, fmt.Sprintf("work-count cross-check: %s traced %v, e2e /metrics delta %v", p.name, p.traced, p.delta))
		}
	}
	return out
}

// printLayers writes the per-layer table to standard error.
func printLayers(t *tracedRun) {
	ls := t.layers()
	fmt.Fprintf(os.Stderr, "%-9s %7s %10s %10s %10s %10s %5s\n", "layer", "calls", "busy_ms", "self_ms", "p50_us", "p99_us", "fail")
	for _, name := range sortedKeys(ls) {
		l := ls[name]
		p50, _ := percentile(l.Durs, 500)
		p99s := "-"
		if p99, err := percentile(l.Durs, 990); err == nil {
			p99s = fmt.Sprintf("%.1f", p99)
		}
		fmt.Fprintf(os.Stderr, "%-9s %7d %10.1f %10.1f %10.1f %10s %5d\n",
			name, l.Calls, msf(l.Busy), msf(l.Self), p50, p99s, l.Failures)
	}
}
