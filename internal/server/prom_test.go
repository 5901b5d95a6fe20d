package server

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// promMetric is one parsed exposition sample.
type promMetric struct {
	name   string
	labels string // raw {...} content, "" if unlabeled
	value  float64
}

// parseProm validates the structural rules of the text exposition format
// 0.0.4 and returns the samples: every non-comment line must be
// `name{labels} value`, every sample must be preceded by a TYPE for its
// family, families must be contiguous, and values must parse as floats.
func parseProm(t *testing.T, body string) []promMetric {
	t.Helper()
	var out []promMetric
	types := map[string]string{}
	var lastFamily string
	seenFamilies := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 {
				t.Fatalf("malformed comment line %q", line)
			}
			if fields[1] == "TYPE" {
				types[fields[2]] = fields[3]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unterminated label set in %q", line)
			}
			name, labels = series[:i], series[i+1:len(series)-1]
		}
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if _, ok := types[family]; !ok {
			// _count may also be a plain counter name; accept exact match.
			if _, ok := types[name]; !ok {
				t.Fatalf("sample %q has no preceding TYPE", line)
			}
			family = name
		}
		if family != lastFamily && seenFamilies[family] {
			t.Fatalf("family %q is not contiguous (line %q)", family, line)
		}
		seenFamilies[family] = true
		lastFamily = family
		out = append(out, promMetric{name: name, labels: labels, value: v})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// scrapeProm GETs base's /metrics, checks its structure with parseProm,
// and returns a lookup from series (`name` or `name{labels}`, labels as
// rendered) to value that fails the test on an absent series.
func scrapeProm(t *testing.T, base string) func(series string) float64 {
	t.Helper()
	values := map[string]float64{}
	for _, m := range parseProm(t, getText(t, base, "/metrics")) {
		series := m.name
		if m.labels != "" {
			series += "{" + m.labels + "}"
		}
		values[series] = m.value
	}
	return func(series string) float64 {
		t.Helper()
		v, ok := values[series]
		if !ok {
			t.Fatalf("/metrics has no series %s", series)
		}
		return v
	}
}

// find returns the samples with the given metric name.
func findProm(ms []promMetric, name string) []promMetric {
	var out []promMetric
	for _, m := range ms {
		if m.name == name {
			out = append(out, m)
		}
	}
	return out
}

func TestPrometheusExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})

	// One real synthesis so stage histograms and algorithm counters move.
	// CPA (8 mixers, 2 detectors) is the smallest benchmark whose routes
	// reliably leave the degenerate adjacent-component case, so the A*
	// expansion counters are exercised too.
	var sub submitResponse
	const cpaReq = `{"bench":"CPA","options":{"imax":60,"seed":7}}`
	if code := postJSON(t, ts.URL, "/v1/synthesize", cpaReq, &sub); code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	if jr := waitTerminal(t, ts.URL, sub.JobID, 60*time.Second); jr.Status != "done" {
		t.Fatalf("job: %s (%s)", jr.Status, jr.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	ms := parseProm(t, string(body))

	value := func(name, labels string) float64 {
		t.Helper()
		for _, m := range findProm(ms, name) {
			if m.labels == labels {
				return m.value
			}
		}
		t.Fatalf("metric %s{%s} missing", name, labels)
		return 0
	}

	if v := value("mfserved_jobs_finished_total", `status="done"`); v < 1 {
		t.Fatalf("jobs done total = %v, want >= 1", v)
	}
	if v := value("mfserved_schedule_bindings_total", `case="1"`) +
		value("mfserved_schedule_bindings_total", `case="2"`); v < 1 {
		t.Fatalf("no binding decisions counted: %v", v)
	}
	if v := value("mfserved_sa_steps_total", ""); v < 1 {
		t.Fatalf("sa steps = %v, want >= 1", v)
	}
	if v := value("mfserved_astar_expanded_total", ""); v < 1 {
		t.Fatalf("astar expanded = %v, want >= 1", v)
	}

	// Histogram invariants for every stage: cumulative buckets
	// non-decreasing in le, +Inf bucket equals _count.
	for _, stage := range []string{"schedule", "place", "route"} {
		var buckets []promMetric
		for _, m := range findProm(ms, "mfserved_stage_latency_seconds_bucket") {
			if strings.Contains(m.labels, `stage="`+stage+`"`) {
				buckets = append(buckets, m)
			}
		}
		if len(buckets) == 0 {
			t.Fatalf("no buckets for stage %q", stage)
		}
		les := make([]float64, 0, len(buckets))
		var infVal float64
		byLe := map[float64]float64{}
		for _, b := range buckets {
			leStr := b.labels[strings.Index(b.labels, `le="`)+4:]
			leStr = leStr[:strings.IndexByte(leStr, '"')]
			if leStr == "+Inf" {
				infVal = b.value
				continue
			}
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				t.Fatalf("bad le %q: %v", leStr, err)
			}
			les = append(les, le)
			byLe[le] = b.value
		}
		sort.Float64s(les)
		prev := 0.0
		for _, le := range les {
			if byLe[le] < prev {
				t.Fatalf("stage %s: bucket le=%g count %g below previous %g", stage, le, byLe[le], prev)
			}
			prev = byLe[le]
		}
		count := value("mfserved_stage_latency_seconds_count", fmt.Sprintf("stage=%q", stage))
		if infVal != count || count < 1 {
			t.Fatalf("stage %s: +Inf bucket %g != count %g (or no observations)", stage, infVal, count)
		}
	}

	// /metrics is the only metrics view.
	if code, _ := getBody(t, ts.URL, "/metrics.json"); code != http.StatusNotFound {
		t.Fatalf("GET /metrics.json: %d, want 404", code)
	}
}

// TestHistogramConcurrent drives observe and snapshot from many
// goroutines; the -race run of this package is the assertion.
func TestHistogramConcurrent(t *testing.T) {
	var h histogram
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.observe(time.Duration(g*1000+i) * time.Microsecond)
			}
		}(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = h.snapshot()
			}
		}()
	}
	wg.Wait()
	snap := h.snapshot()
	if snap.count != 4*500 {
		t.Fatalf("count = %d, want %d", snap.count, 4*500)
	}
	if got := snap.cumulative[len(snap.cumulative)-1]; got != snap.count {
		t.Fatalf("cumulative tail %d != count %d", got, snap.count)
	}
	for i := 1; i < len(snap.cumulative); i++ {
		if snap.cumulative[i] < snap.cumulative[i-1] {
			t.Fatalf("cumulative not monotone at %d: %v", i, snap.cumulative)
		}
	}
}

// TestHistogramSubMillisecondBuckets: a warm cache hit (about 0.1 ms)
// and a 0.3 ms request land in buckets of their own, not all in the
// 1 ms one, and the bounds render without exponents.
func TestHistogramSubMillisecondBuckets(t *testing.T) {
	var h histogram
	h.observe(50 * time.Microsecond)
	h.observe(300 * time.Microsecond)
	snap := h.snapshot()
	for i, bound := range histBounds {
		var want int64
		for _, ms := range []float64{0.05, 0.3} {
			if ms <= bound {
				want++
			}
		}
		if snap.cumulative[i] != want {
			t.Errorf("bucket le=%gms holds %d, want %d", bound, snap.cumulative[i], want)
		}
	}
	if snap.cumulative[len(histBounds)] != 2 || snap.count != 2 {
		t.Errorf("+Inf bucket %d, count %d, want 2 and 2", snap.cumulative[len(histBounds)], snap.count)
	}
	var p promWriter
	p.histogram("h", "", snap)
	for _, want := range []string{`h_bucket{le="0.0001"} 1`, `h_bucket{le="0.00025"} 1`, `h_bucket{le="0.0005"} 2`, `h_bucket{le="0.001"} 2`} {
		if !strings.Contains(p.b.String(), want+"\n") {
			t.Errorf("exposition lacks %q:\n%s", want, p.b.String())
		}
	}
}
