package server

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestSanitizeID(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"req-42", "req-42"},
		{"a b\tc", "abc"},
		{"evil\r\nSet-Cookie: x=1", "evilSet-Cookie:x=1"},
		{"naïve-ü", "nave-"},
		{strings.Repeat("x", 200), strings.Repeat("x", 128)},
	}
	for _, c := range cases {
		if got := sanitizeID(c.in); got != c.want {
			t.Errorf("sanitizeID(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// Clean inputs must come back unmodified (the alloc-free fast path).
	clean := "t-0a1b2c3d-17"
	if got := sanitizeID(clean); got != clean {
		t.Errorf("clean id mangled: %q", got)
	}
}

// getBody GETs path and returns status and body.
func getBody(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// TestClusterMergedTrace is the end-to-end trace contract: a request
// submitted to a non-owner on a 3-node cluster is forwarded, and the
// submission node then serves ONE merged trace that attributes spans to
// both processes under a single trace ID with an intact parent chain.
func TestClusterMergedTrace(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	body := bodyOwnedBy(t, nodes[0].cl, nodes[1].url)

	var sub submitResponse
	if code := postJSON(t, nodes[0].url, "/v1/synthesize", body, &sub); code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	jr := waitTerminal(t, nodes[0].url, sub.JobID, 60*time.Second)
	if jr.Status != "done" {
		t.Fatalf("job: %s (%s)", jr.Status, jr.Error)
	}
	if jr.TraceID == "" {
		t.Fatal("terminal job response carries no trace_id")
	}
	if jr.Trace == "" {
		t.Fatal("terminal job response carries no trace link")
	}

	code, data := getBody(t, nodes[0].url, "/v1/jobs/"+sub.JobID+"/trace?raw=1")
	if code != http.StatusOK {
		t.Fatalf("GET trace?raw=1: %d: %s", code, data)
	}
	var raw struct {
		TraceID string     `json:"trace_id"`
		Route   string     `json:"route"`
		Spans   []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if raw.Route != routeForwarded {
		t.Fatalf("route = %q, want %q", raw.Route, routeForwarded)
	}
	if raw.TraceID != jr.TraceID {
		t.Fatalf("trace endpoint id %q != job trace_id %q", raw.TraceID, jr.TraceID)
	}

	// One trace: shared ID, exactly one root, all parents resolvable,
	// spans from at least two distinct nodes.
	ids := map[string]bool{}
	nodesSeen := map[string]bool{}
	roots := 0
	for _, sp := range raw.Spans {
		if sp.TraceID != raw.TraceID {
			t.Fatalf("span %s carries trace %q", sp.ID, sp.TraceID)
		}
		ids[sp.ID] = true
		nodesSeen[sp.Node] = true
		if sp.Parent == "" {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("merged trace has %d roots, want 1", roots)
	}
	if len(nodesSeen) < 2 {
		t.Fatalf("spans attribute to %d node(s), want >= 2 (forward not merged)", len(nodesSeen))
	}
	for _, sp := range raw.Spans {
		if sp.Parent != "" && !ids[sp.Parent] {
			t.Fatalf("span %s references missing parent %s", sp.ID, sp.Parent)
		}
	}
	// The owner-side work must be visible from the submitting node.
	names := map[string]int{}
	for _, sp := range raw.Spans {
		names[sp.Name]++
	}
	for _, want := range []string{"request", "forward", "synthesize", "stage.schedule", "stage.place", "stage.route"} {
		if names[want] == 0 {
			t.Errorf("merged trace is missing a %q span (have %v)", want, names)
		}
	}
	if names["request"] < 2 {
		t.Errorf("want a request span per process, got %d", names["request"])
	}

	// The Chrome rendering of the same trace: valid JSON, one labeled
	// process track per node.
	code, doc := getBody(t, nodes[0].url, "/v1/jobs/"+sub.JobID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET trace: %d", code)
	}
	var chrome struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &chrome); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	procs := map[string]bool{}
	xEvents := 0
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.Args.Name] = true
		}
		if ev.Ph == "X" {
			xEvents++
		}
	}
	if len(procs) < 2 {
		t.Fatalf("chrome trace names %d process track(s), want >= 2: %v", len(procs), procs)
	}
	if xEvents != len(raw.Spans) {
		t.Fatalf("chrome trace has %d X events, raw trace has %d spans", xEvents, len(raw.Spans))
	}

	// Trace for an unknown job 404s; trace for a local single-span-set
	// job still works (no cluster hop required).
	if code, _ := getBody(t, nodes[0].url, "/v1/jobs/nope/trace"); code != http.StatusNotFound {
		t.Fatalf("unknown job trace: %d, want 404", code)
	}
}

// TestDebugRequestsFlight drives jobs through a cluster node and checks
// the flight recorder endpoint: totals move, records are newest-first,
// the slowest view is sorted, and route/stage attribution is present.
func TestDebugRequestsFlight(t *testing.T) {
	nodes := startCluster(t, 1, func(i int, cfg *Config) { cfg.FlightRecords = 8 })
	base := nodes[0].url

	var first submitResponse
	body := `{"bench":"PCR","options":{"imax":60,"seed":3}}`
	if code := postJSON(t, base, "/v1/synthesize", body, &first); code != http.StatusAccepted {
		t.Fatalf("POST: %d", code)
	}
	if jr := waitTerminal(t, base, first.JobID, 60*time.Second); jr.Status != "done" {
		t.Fatalf("job: %s (%s)", jr.Status, jr.Error)
	}
	// The queue's OnTerminal observer writes the job's flight record
	// after the status flips to done, so wait on the record itself.
	for deadline := time.Now().Add(10 * time.Second); !hasFlightRoute(t, base, routeLocal); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no local-route flight record 10 s after the job finished")
		}
	}
	// Same body again: a cache hit, recorded with its own route.
	var second submitResponse
	if code := postJSON(t, base, "/v1/synthesize", body, &second); code != http.StatusOK {
		t.Fatalf("cache-hit POST: %d", code)
	}

	var dump struct {
		Total   int                 `json:"total"`
		Records []obs.RequestRecord `json:"records"`
	}
	code, data := getBody(t, base, "/debug/requests")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/requests: %d: %s", code, data)
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Total < 2 || len(dump.Records) < 2 {
		t.Fatalf("flight shows total=%d records=%d, want >= 2", dump.Total, len(dump.Records))
	}
	// Newest first: the cache hit is record 0.
	if !dump.Records[0].Cached || dump.Records[0].Route != routeCacheHit {
		t.Fatalf("newest record = %+v, want the cache hit first", dump.Records[0])
	}
	var local *obs.RequestRecord
	for i := range dump.Records {
		if dump.Records[i].Route == routeLocal {
			local = &dump.Records[i]
			break
		}
	}
	if local == nil {
		t.Fatalf("no local-route record in %+v", dump.Records)
	}
	if local.Outcome != "done" || local.ScheduleMs <= 0 || local.PlaceMs <= 0 || local.RouteMs <= 0 {
		t.Fatalf("local record lacks stage attribution: %+v", *local)
	}
	if local.TraceID == "" || local.ID == "" {
		t.Fatalf("local record lacks identity: %+v", *local)
	}

	var slow struct {
		Total   int                 `json:"total"`
		Slowest []obs.RequestRecord `json:"slowest"`
	}
	code, data = getBody(t, base, "/debug/requests?slowest=5")
	if code != http.StatusOK {
		t.Fatalf("GET slowest: %d", code)
	}
	if err := json.Unmarshal(data, &slow); err != nil {
		t.Fatal(err)
	}
	if len(slow.Slowest) < 2 {
		t.Fatalf("slowest view has %d records", len(slow.Slowest))
	}
	for i := 1; i < len(slow.Slowest); i++ {
		if slow.Slowest[i].DurMs > slow.Slowest[i-1].DurMs {
			t.Fatalf("slowest view not sorted: %v then %v", slow.Slowest[i-1].DurMs, slow.Slowest[i].DurMs)
		}
	}
}

// hasFlightRoute reports whether /debug/requests holds a record with the
// given route.
func hasFlightRoute(t *testing.T, base, route string) bool {
	t.Helper()
	code, data := getBody(t, base, "/debug/requests")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/requests: %d: %s", code, data)
	}
	var dump struct {
		Records []obs.RequestRecord `json:"records"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	for _, r := range dump.Records {
		if r.Route == route {
			return true
		}
	}
	return false
}

// TestPromTraceSLOFamilies scrapes a clustered node with an SLO set
// armed and validates the new families appear, are format-valid (via
// parseProm), and carry sane values.
func TestPromTraceSLOFamilies(t *testing.T) {
	slo, err := obs.ParseSLO("p50=1h,p99=1ns")
	if err != nil {
		t.Fatal(err)
	}
	nodes := startCluster(t, 1, func(i int, cfg *Config) { cfg.SLO = slo })
	base := nodes[0].url

	var sub submitResponse
	if code := postJSON(t, base, "/v1/synthesize", `{"bench":"PCR","options":{"imax":60,"seed":4}}`, &sub); code != http.StatusAccepted {
		t.Fatalf("POST: %d", code)
	}
	if jr := waitTerminal(t, base, sub.JobID, 60*time.Second); jr.Status != "done" {
		t.Fatalf("job: %s (%s)", jr.Status, jr.Error)
	}

	code, body := getBody(t, base, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	ms := parseProm(t, string(body))

	one := func(name, labels string) float64 {
		t.Helper()
		for _, m := range findProm(ms, name) {
			if m.labels == labels {
				return m.value
			}
		}
		t.Fatalf("metric %s{%s} missing", name, labels)
		return 0
	}

	if v := one("mfserved_trace_spans_total", ""); v < 1 {
		t.Fatalf("trace_spans_total = %v, want >= 1", v)
	}
	if v := one("mfserved_flight_records_total", ""); v < 1 {
		t.Fatalf("flight_records_total = %v, want >= 1", v)
	}
	if v := one("mfserved_requests_routed_total", `route="local"`); v < 1 {
		t.Fatalf("routed{local} = %v, want >= 1", v)
	}
	// All five route labels must be present (zero-valued is fine) so
	// dashboards never see a series appear mid-flight.
	for _, route := range []string{routeCacheHit, routePeerHit, routeLocal, routeForwarded, routeFallback} {
		one("mfserved_requests_routed_total", `route="`+route+`"`)
	}

	// A 1h p50 objective is trivially met; a 1ns p99 objective is
	// trivially violated — so both good and bad counters must move.
	if v := one("mfserved_slo_requests_total", `objective="p50",result="good"`); v < 1 {
		t.Fatalf("p50 good = %v, want >= 1", v)
	}
	if v := one("mfserved_slo_requests_total", `objective="p99",result="bad"`); v < 1 {
		t.Fatalf("p99 bad = %v, want >= 1", v)
	}
	if v := one("mfserved_slo_attainment_ratio", `objective="p50"`); v != 1 {
		t.Fatalf("p50 attainment = %v, want 1", v)
	}
	if v := one("mfserved_slo_attainment_ratio", `objective="p99"`); v != 0 {
		t.Fatalf("p99 attainment = %v, want 0", v)
	}
	if v := one("mfserved_slo_target_seconds", `objective="p50"`); v != 3600 {
		t.Fatalf("p50 target = %v, want 3600", v)
	}
	// Burn rate for an always-violated p99: (bad/total)/(1-0.99) = 100.
	if v := one("mfserved_slo_burn_rate", `objective="p99"`); v < 99 || v > 101 {
		t.Fatalf("p99 burn rate = %v, want ~100", v)
	}
}

// TestPromSingleNodeFamiliesStable pins the family list of a default
// single-node scrape: none of the cluster-, trace-, flight-, route- or
// SLO-gated families may leak into the default exposition, so existing
// scrape configs see byte-stable family sets when the new layers are
// disabled.
func TestPromSingleNodeFamiliesStable(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8})
	var sub submitResponse
	if code := postJSON(t, ts.URL, "/v1/synthesize", smallReq, &sub); code != http.StatusAccepted {
		t.Fatalf("POST: %d", code)
	}
	if jr := waitTerminal(t, ts.URL, sub.JobID, 60*time.Second); jr.Status != "done" {
		t.Fatalf("job: %s (%s)", jr.Status, jr.Error)
	}

	code, body := getBody(t, ts.URL, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	fams := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fams[strings.Fields(line)[2]] = true
		}
	}
	for _, gated := range []string{
		"mfserved_trace_spans_total", "mfserved_flight_records_total",
		"mfserved_requests_routed_total", "mfserved_slo_requests_total",
		"mfserved_slo_target_seconds", "mfserved_slo_attainment_ratio",
		"mfserved_slo_burn_rate", "mfserved_cluster_members",
		"mfserved_workload_requests_total",
	} {
		if fams[gated] {
			t.Errorf("family %s leaked into the default single-node exposition", gated)
		}
	}

	// Golden family list: additions to the DEFAULT scrape are a
	// compatibility event and must be deliberate — update this list in
	// the same change that adds the family.
	want := []string{
		"mfserved_astar_expanded_total",
		"mfserved_astar_heap_peak",
		"mfserved_batch_members_deduped_total",
		"mfserved_batch_members_total",
		"mfserved_batch_requests_total",
		"mfserved_breaker_open",
		"mfserved_cache_bytes",
		"mfserved_cache_entries",
		"mfserved_cache_hits_total",
		"mfserved_cache_misses_total",
		"mfserved_jobs_accepted_total",
		"mfserved_jobs_finished_total",
		"mfserved_jobs_rejected_total",
		"mfserved_jobs_shed_total",
		"mfserved_journal_replayed_total",
		"mfserved_place_retries_total",
		"mfserved_queue_capacity",
		"mfserved_queue_depth",
		"mfserved_request_latency_seconds",
		"mfserved_route_dilations_total",
		"mfserved_route_slot_conflicts_total",
		"mfserved_route_spec_accepted_total",
		"mfserved_route_spec_rerouted_total",
		"mfserved_route_tasks_total",
		"mfserved_route_wave_width_peak",
		"mfserved_route_waves_total",
		"mfserved_sa_accepted_total",
		"mfserved_sa_moves_total",
		"mfserved_sa_steps_total",
		"mfserved_schedule_bindings_total",
		"mfserved_schedule_wash_avoided_seconds_total",
		"mfserved_stage_latency_seconds",
		"mfserved_synthesis_latency_seconds",
		"mfserved_temper_replicas",
		"mfserved_temper_rounds_total",
		"mfserved_temper_swaps_total",
		"mfserved_uptime_seconds",
		"mfserved_workers",
		"mfserved_workers_busy",
	}
	got := make([]string, 0, len(fams))
	for f := range fams {
		got = append(got, f)
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("default single-node family list changed:\n got: %v\nwant: %v", got, want)
	}
}
