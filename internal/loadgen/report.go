package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/regress"
)

// Percentiles summarizes a latency population in milliseconds, by the
// nearest-rank method, so the numbers are comparable across reports.
type Percentiles struct {
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
	Max    float64 `json:"max"`
	MeanMs float64 `json:"mean"`
}

// Report is one profile's aggregated run. Rates are fractions of
// submitted requests (0 when nothing was submitted).
type Report struct {
	Profile     string  `json:"profile"`
	Seed        uint64  `json:"seed"`
	OpenLoop    bool    `json:"open_loop"`
	RatePerS    float64 `json:"rate_per_s"`
	Concurrency int     `json:"concurrency"`
	Batch       int     `json:"batch,omitempty"`
	DurationS   float64 `json:"duration_s"`

	Scheduled int `json:"scheduled"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Rejected  int `json:"rejected"`
	Shed      int `json:"shed"`
	Errors    int `json:"errors"`
	CacheHits int `json:"cache_hits"`
	Degraded  int `json:"degraded"`

	// Session-profile aggregates (omitted for profiles that never open
	// a session): sessions that opened, fault reports the service
	// accepted, and the repaired/degraded/abandoned classification of
	// every repair.
	Sessions        int `json:"sessions,omitempty"`
	Repairs         int `json:"repairs,omitempty"`
	Repaired        int `json:"repaired,omitempty"`
	DegradedRepairs int `json:"degraded_repairs,omitempty"`
	Abandoned       int `json:"abandoned,omitempty"`

	ErrorRate    float64 `json:"error_rate"`
	ShedRate     float64 `json:"shed_rate"`
	DegradedRate float64 `json:"degraded_rate"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	// ThroughputPerS counts completed jobs over the wall-clock of the
	// run (closed loop's dependent variable; open loop's sanity check
	// against the offered rate).
	ThroughputPerS float64 `json:"throughput_per_s"`

	LatencyMs Percentiles `json:"latency_ms"`

	// Nodes is the cluster size of a run against several nodes (mfload
	// -nodes); PeerServed counts its completed requests that another
	// node's cache or pipeline answered.
	Nodes      int `json:"nodes,omitempty"`
	PeerServed int `json:"peer_served,omitempty"`
}

// percentile is the nearest-rank percentile of a sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Summarize folds run outcomes into a Report.
func Summarize(s *Schedule, outcomes []Outcome, wall time.Duration) Report {
	rep := Report{
		Profile:     s.Profile,
		Seed:        s.Seed,
		OpenLoop:    s.OpenLoop,
		RatePerS:    s.Rate,
		Concurrency: s.Concurrency,
		Batch:       s.Batch,
		DurationS:   wall.Seconds(),
		Scheduled:   len(s.Items),
	}
	var lats []float64
	var sum float64
	for _, o := range outcomes {
		if o.Session {
			rep.Sessions++
			rep.Repairs += o.Repairs
			rep.Repaired += o.Repaired
			rep.DegradedRepairs += o.DegradedRepairs
			if o.Abandoned {
				rep.Abandoned++
			}
		}
		switch o.Status {
		case "done":
			rep.Completed++
			if o.Cached {
				rep.CacheHits++
			}
			if o.Degraded {
				rep.Degraded++
			}
			if o.Peer != "" {
				rep.PeerServed++
			}
			lats = append(lats, o.LatencyMs)
			sum += o.LatencyMs
		case "failed":
			rep.Failed++
		case "rejected":
			rep.Rejected++
		case "shed":
			rep.Shed++
		default:
			rep.Errors++
		}
	}
	n := float64(len(outcomes))
	if n > 0 {
		rep.ErrorRate = float64(rep.Errors+rep.Failed) / n
		rep.ShedRate = float64(rep.Shed+rep.Rejected) / n
	}
	if rep.Completed > 0 {
		rep.DegradedRate = float64(rep.Degraded) / float64(rep.Completed)
		rep.CacheHitRate = float64(rep.CacheHits) / float64(rep.Completed)
	}
	if wall > 0 {
		rep.ThroughputPerS = float64(rep.Completed) / wall.Seconds()
	}
	sort.Float64s(lats)
	rep.LatencyMs = Percentiles{
		P50: percentile(lats, 50),
		P95: percentile(lats, 95),
		P99: percentile(lats, 99),
	}
	if len(lats) > 0 {
		rep.LatencyMs.Max = lats[len(lats)-1]
		rep.LatencyMs.MeanMs = sum / float64(len(lats))
	}
	return rep
}

// Doc is the BENCH_load.json document: one report per profile run plus
// the regress section internal/regress consumes, so the same `mfbench
// -regress BENCH_load.json -bench Synthetic1` gate that guards the
// other BENCH documents guards this one.
type Doc struct {
	Kind      string            `json:"kind"`
	Generated string            `json:"generated,omitempty"`
	Host      string            `json:"host"`
	CPUs      int               `json:"cpus"`
	Profiles  []Report          `json:"profiles"`
	Regress   *regress.Baseline `json:"regress,omitempty"`
	// FaultFires counts the injected faults of a chaos run by point name.
	FaultFires map[string]int64 `json:"fault_fires,omitempty"`
}

// NewDoc stamps a document with host facts.
func NewDoc(generated string) *Doc {
	return &Doc{
		Kind:      "mfload",
		Generated: generated,
		Host:      runtime.GOOS + "/" + runtime.GOARCH + " " + runtime.Version(),
		CPUs:      runtime.NumCPU(),
	}
}

// Write renders the document as indented JSON.
func (d *Doc) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// MeasureRegressEntry captures the Synthetic1 reference figures over
// the live API (imax 60, seed 1 — the options every service baseline
// records), giving the document its regression anchor: load numbers
// are only comparable between runs whose underlying synthesis is
// cost-identical.
func MeasureRegressEntry(client *http.Client, baseURL string) (*regress.Baseline, error) {
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Post(baseURL+"/v1/synthesize", "application/json",
		strings.NewReader(`{"bench":"Synthetic1","options":{"imax":60,"seed":1}}`))
	if err != nil {
		return nil, err
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var sub submitResp
	if err := json.Unmarshal(data, &sub); err != nil {
		return nil, err
	}
	if sub.JobID == "" {
		return nil, fmt.Errorf("reference submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	job, err := pollJob(ctx, client, baseURL, sub.JobID, 10*time.Millisecond)
	switch {
	case err != nil:
		return nil, err
	case job.Status != "done":
		return nil, fmt.Errorf("reference job %s: %s", job.Status, job.Error)
	case job.Metrics == nil:
		return nil, fmt.Errorf("reference job has no metrics")
	}
	return &regress.Baseline{
		Imax: 60, Seed: 1, Tolerance: 0.5,
		Benchmarks: map[string]regress.Entry{"Synthetic1": {
			NsPerOp:         job.Metrics.CPUMs * 1e6,
			MakespanMs:      job.Metrics.ExecutionTimeMs,
			ChannelLengthUm: job.Metrics.ChannelLengthUm,
			ChannelWashMs:   job.Metrics.ChannelWashMs,
			Transports:      job.Metrics.Transports,
		}},
	}, nil
}
