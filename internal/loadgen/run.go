package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Outcome is the measured result of one scheduled request (or one batch
// member). Exactly one of the terminal classifications applies:
// completed/failed jobs ran (a 5xx other than 503 counts as failed),
// rejected (429) and shed (503) never entered the queue, error covers
// transport failures and unexpected replies.
type Outcome struct {
	Index     int     `json:"index"`
	Source    string  `json:"source"`
	Status    string  `json:"status"` // done|failed|rejected|shed|error
	Cached    bool    `json:"cached,omitempty"`
	Degraded  bool    `json:"degraded,omitempty"`
	LatencyMs float64 `json:"latency_ms"`
	Err       string  `json:"error,omitempty"`

	// JobID is the request's job on the node it was sent to. Peer names
	// the cluster node whose cache or pipeline produced the answer, when
	// it was not that node itself.
	JobID string `json:"job_id,omitempty"`
	Peer  string `json:"peer,omitempty"`

	// Session-profile extras (items that carry fault reports). Session
	// reports whether a session actually opened; the counters classify
	// its accepted repairs. An abandoned session is still Status "done"
	// — abandonment is the service's explicit verdict that the assay is
	// unrepairable, not a workload failure — with Abandoned set.
	Session         bool `json:"session,omitempty"`
	Repairs         int  `json:"repairs,omitempty"`
	Repaired        int  `json:"repaired,omitempty"`
	DegradedRepairs int  `json:"degraded_repairs,omitempty"`
	Abandoned       bool `json:"abandoned,omitempty"`
}

// Runner executes a schedule against one or more mfserved nodes.
type Runner struct {
	// Nodes are the base URLs requests go to: item i is sent to
	// Nodes[i mod len(Nodes)] (a batch goes where its first member would).
	Nodes  []string
	Client *http.Client
	// ReqLog, when set, receives one JSON line per outcome as it
	// resolves (the request log CI archives).
	ReqLog io.Writer
	// PollInterval is the job-status poll cadence (default 10ms).
	PollInterval time.Duration
	// Timeout bounds one request's submit+poll lifetime (default 60s).
	Timeout time.Duration

	mu      sync.Mutex
	results []Outcome
}

func (r *Runner) client() *http.Client {
	if r.Client != nil {
		return r.Client
	}
	return http.DefaultClient
}

func (r *Runner) record(o Outcome) {
	r.mu.Lock()
	r.results = append(r.results, o)
	if r.ReqLog != nil {
		if line, err := json.Marshal(o); err == nil {
			r.ReqLog.Write(append(line, '\n'))
		}
	}
	r.mu.Unlock()
}

// settle records the outcome of an item that resolved without a job to
// poll.
func (r *Runner) settle(it Item, status, msg string, start time.Time) {
	r.record(Outcome{Index: it.Index, Source: it.Source, Status: status, Err: msg, LatencyMs: msSince(start)})
}

// Run executes the schedule: open-loop items fire at their offsets
// (bounded by the schedule's concurrency cap so a stalled server sheds
// into the cap instead of unbounded goroutines), closed-loop items are
// consumed in order by Concurrency workers. With s.Batch > 0,
// consecutive items group into POST /v1/synthesize/batch calls and the
// members resolve individually. Returns the outcomes in schedule order.
func (r *Runner) Run(ctx context.Context, s *Schedule) ([]Outcome, error) {
	if len(r.Nodes) == 0 {
		return nil, errors.New("loadgen: runner has no nodes")
	}
	if r.PollInterval <= 0 {
		r.PollInterval = 10 * time.Millisecond
	}
	if r.Timeout <= 0 {
		r.Timeout = 60 * time.Second
	}
	r.results = r.results[:0]

	// Group items: singles are batches of one.
	bsize := s.Batch
	if bsize <= 0 {
		bsize = 1
	}
	type group struct {
		at    time.Duration
		items []Item
	}
	var groups []group
	for i := 0; i < len(s.Items); i += bsize {
		end := i + bsize
		if end > len(s.Items) {
			end = len(s.Items)
		}
		groups = append(groups, group{at: s.Items[i].At, items: s.Items[i:end]})
	}

	canceled := func(g group) {
		for _, it := range g.items {
			r.record(Outcome{Index: it.Index, Source: it.Source, Status: "error", Err: "canceled before submit"})
		}
	}
	sem := make(chan struct{}, max(1, s.Concurrency))
	var wg sync.WaitGroup
	launch := func(g group) {
		defer wg.Done()
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			canceled(g)
			return
		}
		defer func() { <-sem }()
		base := r.Nodes[g.items[0].Index%len(r.Nodes)]
		switch {
		case len(g.items) == 1 && len(g.items[0].Faults) > 0:
			r.runSession(ctx, base, s.Profile, g.items[0])
		case len(g.items) == 1 && s.Batch <= 0:
			r.runSingle(ctx, base, s.Profile, g.items[0])
		default:
			r.runBatch(ctx, base, s.Profile, g.items)
		}
	}

	// Open loop launches each group at its offset. Closed loop launches
	// everything at once: the semaphore IS the loop, letting Concurrency
	// slots drain the groups in order.
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for _, g := range groups {
		if wait := g.at - time.Since(start); s.OpenLoop && wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			canceled(g)
			continue
		}
		wg.Add(1)
		go launch(g)
	}
	wg.Wait()

	r.mu.Lock()
	out := make([]Outcome, len(r.results))
	copy(out, r.results)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out, ctx.Err()
}

// submitResp is the subset of the single- and batch-submit responses
// the runner needs.
type submitResp struct {
	JobID  string `json:"job_id"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
}

type batchResp struct {
	Members []struct {
		Index  int    `json:"index"`
		JobID  string `json:"job_id"`
		Status string `json:"status"`
		Cached bool   `json:"cached"`
		Error  string `json:"error"`
	} `json:"members"`
}

func (r *Runner) post(ctx context.Context, base, path, profile string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(workloadProfileHeader, profile)
	resp, err := r.client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// workloadProfileHeader mirrors server.WorkloadProfileHeader; kept as a
// local constant so loadgen does not import the server (the server's
// tests assert the two stay equal).
const workloadProfileHeader = "X-Workload-Profile"

// classifySubmit maps a submit status code onto an outcome status, or
// returns "" for accepted submissions that still need polling. A server
// error other than 503 is the service failing the request (an injected
// handler fault, a journal write), so it counts as failed, not error.
func classifySubmit(code int) string {
	switch {
	case code == http.StatusTooManyRequests:
		return "rejected"
	case code == http.StatusServiceUnavailable:
		return "shed"
	case code >= http.StatusInternalServerError:
		return "failed"
	case code == http.StatusOK || code == http.StatusAccepted:
		return ""
	default:
		return "error"
	}
}

func (r *Runner) runSingle(ctx context.Context, base, profile string, it Item) {
	start := time.Now()
	cctx, cancel := context.WithTimeout(ctx, r.Timeout)
	defer cancel()
	code, data, err := r.post(cctx, base, "/v1/synthesize", profile, it.Body)
	if err != nil {
		r.settle(it, "error", err.Error(), start)
		return
	}
	if st := classifySubmit(code); st != "" {
		r.settle(it, st, strings.TrimSpace(string(data)), start)
		return
	}
	var sub submitResp
	if err := json.Unmarshal(data, &sub); err != nil {
		r.settle(it, "error", err.Error(), start)
		return
	}
	r.record(r.await(cctx, base, it, sub.JobID, sub.Cached, start))
}

// runSession drives one chip-session lifecycle: open the session with
// the item body, inject each fault report in order, close. The session
// create is synchronous (no job to poll), so the outcome latency spans
// the whole lifecycle including every repair.
func (r *Runner) runSession(ctx context.Context, base, profile string, it Item) {
	start := time.Now()
	cctx, cancel := context.WithTimeout(ctx, r.Timeout)
	defer cancel()
	o := Outcome{Index: it.Index, Source: it.Source}
	defer func() {
		o.LatencyMs = msSince(start)
		r.record(o)
	}()
	code, data, err := r.post(cctx, base, "/v1/sessions", profile, it.Body)
	if err != nil {
		o.Status, o.Err = "error", err.Error()
		return
	}
	if code != http.StatusCreated {
		if o.Status = classifySubmit(code); o.Status == "" {
			o.Status = "error"
		}
		o.Err = fmt.Sprintf("create: HTTP %d: %s", code, strings.TrimSpace(string(data)))
		return
	}
	var sess struct {
		ID      string `json:"id"`
		Cached  bool   `json:"cached"`
		Session string `json:"session"`
		Faults  string `json:"faults"`
	}
	if err := json.Unmarshal(data, &sess); err != nil {
		o.Status, o.Err = "error", err.Error()
		return
	}
	o.Session, o.Cached, o.Status = true, sess.Cached, "done"

reports:
	for i, fr := range it.Faults {
		code, data, err := r.post(cctx, base, sess.Faults, profile, fr)
		if err != nil {
			o.Status, o.Err = "error", err.Error()
			break
		}
		if code != http.StatusOK {
			o.Status, o.Err = "failed", fmt.Sprintf("fault %d: HTTP %d: %s", i, code, strings.TrimSpace(string(data)))
			break
		}
		var rr struct {
			Record struct {
				Outcome string `json:"outcome"`
			} `json:"record"`
		}
		if err := json.Unmarshal(data, &rr); err != nil {
			o.Status, o.Err = "error", err.Error()
			break
		}
		o.Repairs++
		switch rr.Record.Outcome {
		case "repaired":
			o.Repaired++
		case "degraded":
			o.DegradedRepairs++
			o.Degraded = true
		case "abandoned":
			// The service's explicit verdict: the assay is lost. No more
			// reports can land and there is nothing to close.
			o.Abandoned = true
			return
		default:
			o.Status, o.Err = "failed", fmt.Sprintf("fault %d: unknown repair outcome %q", i, rr.Record.Outcome)
			break reports
		}
	}
	// The server keeps a session open until it is closed, so a session
	// whose report failed is closed too; its first failure stands.
	code, data, err = r.post(cctx, base, sess.Session+"/close", profile, nil)
	switch {
	case o.Status != "done":
	case err != nil:
		o.Status, o.Err = "error", err.Error()
	case code != http.StatusOK:
		o.Status, o.Err = "failed", fmt.Sprintf("close: HTTP %d: %s", code, strings.TrimSpace(string(data)))
	}
}

func (r *Runner) runBatch(ctx context.Context, base, profile string, items []Item) {
	start := time.Now()
	cctx, cancel := context.WithTimeout(ctx, r.Timeout)
	defer cancel()
	var body bytes.Buffer
	body.WriteString(`{"requests":[`)
	for i, it := range items {
		if i > 0 {
			body.WriteByte(',')
		}
		body.Write(it.Body)
	}
	body.WriteString(`]}`)
	code, data, err := r.post(cctx, base, "/v1/synthesize/batch", profile, body.Bytes())
	st, msg := classifySubmit(code), strings.TrimSpace(string(data))
	if err != nil {
		st, msg = "error", err.Error()
	}
	var br batchResp
	if st == "" {
		if err := json.Unmarshal(data, &br); err != nil || len(br.Members) != len(items) {
			st, msg = "error", fmt.Sprintf("batch response: %v (members %d, want %d)", err, len(br.Members), len(items))
		}
	}
	if st != "" {
		for _, it := range items {
			r.settle(it, st, msg, start)
		}
		return
	}
	// Members resolve concurrently; duplicates share a job and poll it
	// independently (cheap — status reads).
	var wg sync.WaitGroup
	for i, m := range br.Members {
		it := items[i]
		if m.Status == "rejected" {
			r.settle(it, "rejected", m.Error, start)
			continue
		}
		wg.Add(1)
		go func(it Item, jobID string, cached bool) {
			defer wg.Done()
			r.record(r.await(cctx, base, it, jobID, cached, start))
		}(it, m.JobID, m.Cached)
	}
	wg.Wait()
}

// await polls a job to a terminal state and classifies it.
func (r *Runner) await(ctx context.Context, base string, it Item, jobID string, cached bool, start time.Time) Outcome {
	o := Outcome{Index: it.Index, Source: it.Source, Cached: cached, JobID: jobID}
	job, err := pollJob(ctx, r.client(), base, jobID, r.PollInterval)
	o.LatencyMs = msSince(start)
	switch {
	case err != nil:
		o.Status, o.Err = "error", err.Error()
	case job.Status == "done":
		o.Status, o.Peer = "done", job.Peer
		o.Cached = o.Cached || job.Cached
		o.Degraded = len(job.Degradations) > 0
	default:
		o.Status, o.Err = "failed", job.Error
	}
	return o
}

// jobStatus is the subset of GET /v1/jobs/{id} the package reads.
type jobStatus struct {
	Status       string            `json:"status"`
	Cached       bool              `json:"cached"`
	Peer         string            `json:"peer"`
	Error        string            `json:"error"`
	Degradations []json.RawMessage `json:"degradations"`
	Metrics      *struct {
		ExecutionTimeMs int64   `json:"execution_time_ms"`
		ChannelLengthUm int64   `json:"channel_length_um"`
		ChannelWashMs   int64   `json:"channel_wash_ms"`
		Transports      int     `json:"transports"`
		CPUMs           float64 `json:"cpu_ms"`
	} `json:"metrics"`
}

// pollJob reads a job's status every interval until it is done, failed
// or canceled, or ctx ends.
func pollJob(ctx context.Context, c *http.Client, base, jobID string, every time.Duration) (jobStatus, error) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		var job jobStatus
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+jobID, nil)
		if err != nil {
			return job, err
		}
		resp, err := c.Do(req)
		if err != nil {
			return job, err
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(data, &job); err != nil {
			return job, err
		}
		switch job.Status {
		case "done", "failed", "canceled":
			return job, nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return job, errors.New("timeout awaiting job " + jobID)
		}
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
