package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/session"
	"repro/internal/solio"
)

// e2e.go: the untraced end-to-end run against a spawned mfserved. One
// client process, at most conns connections and requests in flight.

const (
	// streams is how many chip streams session-repair runs.
	streams = 2
	// setupRuns is how many times a run spawns the server and pre-fills
	// it; setup_s is their median and the last server is measured.
	setupRuns = 5
	// fillDepth bounds the pre-fill's unfinished jobs, well inside
	// mfserved's default queue of 64, so no pre-fill submit is refused.
	fillDepth = 32
	// lateLimit marks a run invalid: once a send slips this far behind
	// its schedule (open loop) or cadence (closed loop), or the last job
	// finishes this long after the last send, the offered load is no
	// longer the workload's.
	lateLimit = time.Second
	// cpuSlice is the length of the slices the window's server CPU is
	// read in. cpu_ms_per_op is the median over the slices, so a burst of
	// contention from the host's other tenants in one slice does not move
	// it; a slice holds enough ops that the 10 ms resolution of
	// /proc/<pid>/stat moves a slice's CPU per op by well under 1%.
	cpuSlice = 5 * time.Second
	// calibReps is how many times the calibration kernel is timed on each
	// side of the window.
	calibReps = 3
)

// windowOpen is logged to standard error as the timed window opens.
const windowOpen = "svcbench: timed window open"

// conns is the client's connection and in-flight bound, and its
// GOMAXPROCS: at most two, and never more than the host's CPUs.
var conns = min(2, runtime.NumCPU())

// parallel calls fn(i) for every i in [0, n) on conns goroutines and
// returns once every call has returned.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// opKind classifies a timed request.
type opKind int

const (
	opSynth  opKind = iota // open loop: POST /v1/synthesize
	opOpen                 // session-repair: POST /v1/sessions
	opRepair               // session-repair: POST /v1/sessions/{id}/faults
	opClose                // session-repair: POST /v1/sessions/{id}/close
)

// opResult is one timed request as the client saw it.
type opResult struct {
	Kind    opKind
	Req     int // inputs.Reqs index (synth, open)
	Script  int // session-repair: script and fault index
	Fault   int
	Due     time.Time // scheduled send (open loop) or send (closed loop)
	Sent    time.Time
	Done    time.Time // completion: response, or the job's finished stamp
	Status  int
	Body    []byte // the raw response, decoded only after the window
	Err     string // transport error or failed output check
	JobID   string
	Created time.Time // job record stamps
	Started time.Time
	Key     string
}

func (o *opResult) ok() bool { return o.Err == "" }

func (o *opResult) fail(format string, args ...any) {
	if o.Err == "" {
		o.Err = fmt.Sprintf(format, args...)
	}
}

// latencyOp reports whether the op's latency is the workload's latency:
// every synthesis request, and on session-repair the repairs a stalled
// chip waits for.
func (o *opResult) latencyOp() bool { return o.Kind == opSynth || o.Kind == opRepair }

// served is one distinct solution the run served, for the output checks
// and the solution-quality sums.
type served struct {
	Name string
	Doc  []byte         // the served document (nil for session repairs)
	Sol  *core.Solution // decoded or replayed solution
	// Quality marks the solutions the makespan, channel-length and wash
	// sums cover: every served one, except that session-repair counts
	// only its repaired solutions.
	Quality bool
}

// e2eResult is everything the untraced run measured.
type e2eResult struct {
	Setup        []float64 // seconds, one per setup repetition
	Ops          []opResult
	Window       time.Duration // first due send to last completion
	CPU          time.Duration // server CPU over the window
	CPUSamples   []cpuSample   // server CPU read every cpuSlice through the window
	Mem          memStats      // server MemStats deltas over the window
	PeakRSS      float64       // MiB
	Counts       map[string]float64
	JournalLines int
	Latency      []float64 // ms, every successful op in the order the ops were due
	Late         []float64 // ms: send lateness against the schedule or cadence
	Steal        float64   // share of the host's CPU time stolen by the hypervisor in the window
	Calib        []float64 // ms per calibration kernel, before and after the window
	Served       map[string]served
	// Prefill maps a working-set request index to its cache key and
	// document as the measured server's setup produced them.
	PrefillKey map[int]string
	PrefillDoc map[int][]byte
	Problems   []string
}

func (r *e2eResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runner holds what one run needs to talk to servers.
type runner struct {
	in      *inputs
	bin     string
	scratch string
	client  *http.Client
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
		Timeout: 2 * time.Minute,
	}
}

// do sends one request and returns the status and the raw body.
func (r *runner) do(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// jobRecord is the subset of GET /v1/jobs/{id} the benchmark reads.
type jobRecord struct {
	Status   string     `json:"status"`
	Cached   bool       `json:"cached"`
	Error    string     `json:"error"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Key      string     `json:"cache_key"`
}

func (r *runner) job(base, id string) (jobRecord, error) {
	var j jobRecord
	code, body, err := r.do(http.MethodGet, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return j, err
	}
	if code != http.StatusOK {
		return j, fmt.Errorf("GET job %s: %d %s", id, code, bytes.TrimSpace(body))
	}
	return j, json.Unmarshal(body, &j)
}

func terminal(status string) bool {
	return status == "done" || status == "failed" || status == "canceled"
}

// jobID reads the job ID out of a submit response.
func jobID(body []byte) (string, error) {
	var s struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(body, &s); err != nil || s.JobID == "" {
		return "", fmt.Errorf("no job ID in %q", bytes.TrimSpace(body))
	}
	return s.JobID, nil
}

// fill synthesizes the working set and returns its job IDs once every
// one is done, keeping at most fillDepth jobs unfinished. Completion is
// read from the job records, polled 1 ms apart on the oldest unfinished
// job.
func (r *runner) fill(ctx context.Context, base string) ([]string, error) {
	ids := make([]string, len(r.in.Setup))
	await := func(i int) error {
		for ctx.Err() == nil {
			j, err := r.job(base, ids[i])
			if err != nil {
				return err
			}
			if terminal(j.Status) {
				if j.Status != "done" {
					return fmt.Errorf("setup %s: job %s %s: %s", r.in.Reqs[r.in.Setup[i]].Name, ids[i], j.Status, j.Error)
				}
				return nil
			}
			time.Sleep(time.Millisecond)
		}
		return ctx.Err()
	}
	oldest := 0
	for i, ri := range r.in.Setup {
		for ; i-oldest >= fillDepth; oldest++ {
			if err := await(oldest); err != nil {
				return nil, err
			}
		}
		code, body, err := r.do(http.MethodPost, base+"/v1/synthesize", r.in.Reqs[ri].Body)
		if err != nil {
			return nil, err
		}
		if code != http.StatusAccepted {
			return nil, fmt.Errorf("setup %s: HTTP %d %s", r.in.Reqs[ri].Name, code, bytes.TrimSpace(body))
		}
		if ids[i], err = jobID(body); err != nil {
			return nil, fmt.Errorf("setup %s: %w", r.in.Reqs[ri].Name, err)
		}
	}
	for ; oldest < len(ids); oldest++ {
		if err := await(oldest); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// runE2E spawns mfserved setupRuns times, pre-filling each, measures the
// timed window on the last one, and checks every output. The server is
// stopped on every return path.
func (r *runner) runE2E(ctx context.Context) (*e2eResult, error) {
	res := &e2eResult{Served: map[string]served{}, PrefillKey: map[int]string{}, PrefillDoc: map[int][]byte{}}
	var p *serverProc
	var ids []string
	for k := 0; k < setupRuns; k++ {
		sp, start, err := spawn(ctx, r.bin, r.scratch)
		if err != nil {
			return nil, err
		}
		ids, err = r.fill(ctx, sp.base)
		setup := time.Since(start).Seconds()
		if err != nil {
			sp.stop()
			return nil, fmt.Errorf("setup: %w\n%s", err, sp.logTail())
		}
		res.Setup = append(res.Setup, setup)
		if k < setupRuns-1 {
			sp.stop()
		} else {
			p = sp
		}
	}
	defer p.stop()
	if err := p.awaitDebug(r.client); err != nil {
		return nil, err
	}
	if err := r.prefill(p.base, ids, res); err != nil {
		return nil, err
	}

	if err := r.window(ctx, p, res); err != nil {
		return nil, err
	}
	// Outside the window: job records, completion stamps and documents.
	if r.in.Workload != sessionRepair {
		if err := r.fetchJobs(ctx, p.base, res); err != nil {
			return nil, err
		}
	}
	last := res.Ops[0].Due
	for i := range res.Ops {
		if o := &res.Ops[i]; o.ok() && o.Done.After(last) {
			last = o.Done
		}
	}
	res.Window = last.Sub(res.Ops[0].Due)
	p.stop()

	r.checkOutputs(res)
	return res, nil
}

// window runs the timed window and reads the server's cost at its edges.
// A value that cannot be read fails the run.
func (r *runner) window(ctx context.Context, p *serverProc, res *e2eResult) error {
	calib := func() {
		for k := 0; k < calibReps; k++ {
			res.Calib = append(res.Calib, calibrate())
		}
	}
	calib()
	before, err := p.scrape(r.client)
	if err != nil {
		return err
	}
	jl0, err := p.journalLines()
	if err != nil {
		return err
	}
	mem0, err := p.memStats(r.client)
	if err != nil {
		return err
	}
	steal0, total0, err := hostTicks()
	if err != nil {
		return err
	}
	t0 := time.Now().Add(20 * time.Millisecond)
	fmt.Fprintln(os.Stderr, windowOpen)
	stopCPU, sampled := make(chan struct{}), make(chan error, 1)
	go func() {
		var err error
		res.CPUSamples, err = p.sampleCPU(t0, stopCPU)
		sampled <- err
	}()
	switch r.in.Workload {
	case sessionRepair:
		r.closedLoop(ctx, p.base, t0, res)
	default:
		r.openLoop(ctx, p.base, t0, res)
	}
	var waitErr error
	if r.in.Workload == serveCold {
		waitErr = r.awaitJobs(ctx, p, before, res)
	}
	close(stopCPU)
	if err := ctx.Err(); err != nil {
		<-sampled
		return err
	}
	if err := errors.Join(waitErr, <-sampled); err != nil {
		return err
	}
	mem1, err := p.memStats(r.client)
	if err != nil {
		return err
	}
	after, err := p.scrape(r.client)
	if err != nil {
		return err
	}
	jl1, err := p.journalLines()
	if err != nil {
		return err
	}
	if res.PeakRSS, err = p.peakRSS(); err != nil {
		return err
	}
	steal1, total1, err := hostTicks()
	if err != nil {
		return err
	}
	calib()
	if total1 <= total0 {
		return errors.New("/proc/stat: no CPU ticks passed in the window")
	}
	res.Steal = float64(steal1-steal0) / float64(total1-total0)
	res.CPU = res.CPUSamples[len(res.CPUSamples)-1].CPU - res.CPUSamples[0].CPU
	res.Mem = memStats{mem1.TotalAlloc - mem0.TotalAlloc, mem1.Mallocs - mem0.Mallocs, mem1.NumGC - mem0.NumGC}
	res.Counts = deltas(before, after)
	res.JournalLines = jl1 - jl0
	return nil
}

// prefill records the working set's keys and documents as the setup
// produced them: the reference every hit and session is checked against.
func (r *runner) prefill(base string, ids []string, res *e2eResult) error {
	for i, id := range ids {
		ri := r.in.Setup[i]
		j, err := r.job(base, id)
		if err != nil {
			return err
		}
		code, doc, err := r.do(http.MethodGet, base+"/v1/jobs/"+id+"/solution", nil)
		if err != nil {
			return err
		}
		if code != http.StatusOK || j.Key == "" {
			return fmt.Errorf("prefill %s: solution HTTP %d, key %q", r.in.Reqs[ri].Name, code, j.Key)
		}
		res.PrefillKey[ri] = j.Key
		res.PrefillDoc[ri] = doc
	}
	return nil
}

// openLoop sends every op at its scheduled instant over conns
// connections and keeps only each response's status and raw bytes. A
// request's clock starts at its scheduled send time, so a send delayed
// behind busy connections counts against latency.
func (r *runner) openLoop(ctx context.Context, base string, t0 time.Time, res *e2eResult) {
	res.Ops = make([]opResult, len(r.in.Ops))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				o := &res.Ops[i]
				o.Sent = time.Now()
				code, body, err := r.do(http.MethodPost, base+"/v1/synthesize", r.in.Reqs[o.Req].Body)
				o.Done = time.Now()
				o.Status, o.Body = code, body
				if err != nil {
					o.fail("transport: %v", err)
				}
			}
		}()
	}
	for i, op := range r.in.Ops {
		due := t0.Add(op.At)
		res.Ops[i] = opResult{Kind: opSynth, Req: op.Req, Due: due}
		if ctx.Err() != nil {
			res.Ops[i].fail("interrupted")
			continue
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	for i := range res.Ops {
		if o := &res.Ops[i]; !o.Sent.IsZero() {
			res.Late = append(res.Late, msf(o.Sent.Sub(o.Due)))
		}
	}
}

// awaitJobs waits until every job the window queued has finished,
// watching the /metrics job counters every 20 ms. Latency comes from the
// jobs' own finished stamps, so the poll period adds nothing to it.
func (r *runner) awaitJobs(ctx context.Context, p *serverProc, before promSample, res *e2eResult) error {
	queued := 0.0
	for _, o := range res.Ops {
		if o.Status == http.StatusAccepted {
			queued++
		}
	}
	canceled := `mfserved_jobs_finished_total{status="canceled"}`
	for ctx.Err() == nil {
		now, err := p.scrape(r.client)
		if err != nil {
			return err
		}
		d := deltas(before, now)
		if d["count.jobs_finished"]+d["count.jobs_failed"]+now[canceled]-before[canceled] >= queued {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return ctx.Err()
}

// fetchJobs reads each open-loop op's job record: a queued job completes
// at its finished stamp (the server's clock is the client's), a cache
// hit when its response arrived. It also fetches the documents: each
// distinct one on serve-cold, every hit's on serve-warm.
func (r *runner) fetchJobs(ctx context.Context, base string, res *e2eResult) error {
	want := http.StatusAccepted
	if r.in.Workload == serveWarm {
		want = http.StatusOK
	}
	docs := make([][]byte, len(res.Ops))
	parallel(len(res.Ops), func(i int) {
		o := &res.Ops[i]
		if !o.ok() || ctx.Err() != nil {
			return
		}
		if o.Status != want {
			o.fail("HTTP %d (want %d): %s", o.Status, want, bytes.TrimSpace(o.Body))
			return
		}
		var err error
		if o.JobID, err = jobID(o.Body); err != nil {
			o.fail("%v", err)
			return
		}
		j, err := r.job(base, o.JobID)
		if err != nil {
			o.fail("%v", err)
			return
		}
		if j.Status != "done" || j.Started == nil || j.Finished == nil {
			o.fail("job %s %s: %s", o.JobID, j.Status, j.Error)
			return
		}
		o.Key, o.Created, o.Started = j.Key, j.Created, *j.Started
		if r.in.Workload == serveCold {
			if j.Cached {
				o.fail("job %s served from cache on a distinct key", o.JobID)
				return
			}
			o.Done = *j.Finished
		}
		code, doc, err := r.do(http.MethodGet, base+"/v1/jobs/"+o.JobID+"/solution", nil)
		if err != nil || code != http.StatusOK {
			o.fail("GET solution of %s: %d %v", o.JobID, code, err)
			return
		}
		docs[i] = doc
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	for i := range res.Ops {
		o := &res.Ops[i]
		if !o.ok() {
			continue
		}
		name := r.in.Reqs[o.Req].Name
		if _, seen := res.Served[o.Key]; seen && r.in.Workload == serveCold {
			o.fail("key %s of %s served twice on serve-cold", o.Key, name)
			continue
		}
		if r.in.Workload == serveWarm {
			if want := res.PrefillKey[o.Req]; o.Key != want {
				o.fail("hit on %s served key %s, pre-fill key %s", name, o.Key, want)
				continue
			}
			if !bytes.Equal(docs[i], res.PrefillDoc[o.Req]) {
				o.fail("hit on %s served document %s, pre-fill %s", name, digest(docs[i]), digest(res.PrefillDoc[o.Req]))
				continue
			}
		}
		if _, seen := res.Served[o.Key]; !seen {
			res.Served[o.Key] = served{Name: name, Doc: docs[i], Quality: true}
		}
	}
	return nil
}

// closedLoop runs session-repair's chip streams. Each waits for its own
// reply before sending its next request, and sends only at its chip's
// cadence: a stream's slots are streamPeriod apart from t0, each stream
// offset by an equal share of the period, and a request goes out at the
// slot after its predecessor's. When a reply comes back after that slot,
// the stream skips the slots it missed and sends at the first one after
// the reply, so it never sends back to back to make them up. A request's
// latency runs from its send, as in any closed loop; how far a send
// trailed the slot after its predecessor's is the stream's lateness.
func (r *runner) closedLoop(ctx context.Context, base string, t0 time.Time, res *e2eResult) {
	per := 2 + faultsPerSession
	res.Ops = make([]opResult, len(r.in.Sessions)*per)
	late := make([][]float64, streams)
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			next := t0.Add(time.Duration(stream) * streamPeriod / streams)
			pace := func() {
				due := next
				if behind := time.Since(next); behind > 0 {
					next = next.Add((behind/streamPeriod + 1) * streamPeriod)
				}
				time.Sleep(time.Until(next))
				late[stream] = append(late[stream], msf(time.Since(due)))
				next = next.Add(streamPeriod)
			}
			for i := stream; i < len(r.in.Sessions); i += streams {
				ops := res.Ops[i*per : (i+1)*per]
				if ctx.Err() != nil {
					for k := range ops {
						ops[k].fail("interrupted")
					}
					continue
				}
				r.session(base, r.in.Sessions[i], ops, pace)
			}
		}(s)
	}
	wg.Wait()
	for _, l := range late {
		res.Late = append(res.Late, l...)
	}
}

// session runs one scripted session lifecycle into ops; pace holds each
// request until its cadence slot. Only the session ID is read out of a
// response inside the window.
func (r *runner) session(base string, si int, ops []opResult, pace func()) {
	sc := &r.in.Scripts[si]
	send := func(o *opResult, url string, body []byte) {
		o.Script = si
		pace()
		o.Sent = time.Now()
		o.Due = o.Sent
		code, resp, err := r.do(http.MethodPost, url, body)
		o.Done = time.Now()
		o.Status, o.Body = code, resp
		if err != nil {
			o.fail("transport: %v", err)
		}
	}
	open := &ops[0]
	open.Kind, open.Req = opOpen, sc.Base
	send(open, base+"/v1/sessions", r.in.Reqs[sc.Base].Body)
	var snap struct {
		ID string `json:"id"`
	}
	if open.ok() && open.Status == http.StatusCreated {
		if err := json.Unmarshal(open.Body, &snap); err != nil {
			open.fail("decoding session: %v", err)
		}
	}
	for k := range sc.Faults {
		o := &ops[1+k]
		o.Kind, o.Fault, o.Script = opRepair, k, si
		if snap.ID == "" {
			o.fail("session was not opened")
			continue
		}
		send(o, base+"/v1/sessions/"+snap.ID+"/faults", sc.Faults[k].Body)
	}
	cl := &ops[len(ops)-1]
	cl.Kind, cl.Script = opClose, si
	if snap.ID == "" {
		cl.fail("session was not opened")
		return
	}
	send(cl, base+"/v1/sessions/"+snap.ID+"/close", nil)
}

// checkOutputs verifies every response and every distinct solution the
// run served; a failed check fails its op. It also marks the run invalid
// when the client fell behind the workload's schedule.
func (r *runner) checkOutputs(res *e2eResult) {
	if r.in.Workload == sessionRepair {
		r.checkSessions(res)
	}
	// Decode and audit each distinct served solution once, two at a time.
	keys := sortedKeys(res.Served)
	bad := make([]string, len(keys))
	sols := make([]*core.Solution, len(keys))
	parallel(len(keys), func(i int) {
		sv := res.Served[keys[i]]
		sol := sv.Sol
		if sol == nil {
			var err error
			if sol, err = solio.Decode(bytes.NewReader(sv.Doc)); err != nil {
				bad[i] = fmt.Sprintf("%s: decode: %v", sv.Name, err)
				return
			}
		}
		if rep := core.Audit(sol); !rep.OK() {
			bad[i] = fmt.Sprintf("%s: audit: %v", sv.Name, rep.Err())
		}
		sols[i] = sol
	})
	badKey := map[string]string{}
	for i, msg := range bad {
		sv := res.Served[keys[i]]
		sv.Sol = sols[i]
		res.Served[keys[i]] = sv
		if msg != "" {
			badKey[keys[i]] = msg
			res.problem("%s", msg)
		}
	}
	for i := range res.Ops {
		if o := &res.Ops[i]; o.ok() {
			if msg, ok := badKey[o.Key]; ok {
				o.fail("%s", msg)
			}
		}
	}
	r.checkIsolation(res)

	if m := maxOf(res.Late); m > msf(lateLimit) {
		res.problem("client fell behind: a send slipped %.1f ms behind its schedule (limit %v); the run is invalid", m, lateLimit)
	}
	if r.in.Workload != sessionRepair {
		lastDue := res.Ops[len(res.Ops)-1].Due
		for i := range res.Ops {
			if o := &res.Ops[i]; o.ok() && o.Done.Sub(lastDue) > lateLimit {
				res.problem("completions fell behind: %s completed %.1f ms after the last send (limit %v); the run is invalid",
					r.in.Reqs[o.Req].Name, msf(o.Done.Sub(lastDue)), lateLimit)
				break
			}
		}
	}
}

// checkSessions decodes every session response and compares it with the
// in-process replay that generated its faults.
func (r *runner) checkSessions(res *e2eResult) {
	for i := range res.Ops {
		o := &res.Ops[i]
		if !o.ok() {
			continue
		}
		sc := &r.in.Scripts[o.Script]
		name := r.in.Reqs[sc.Base].Name
		switch o.Kind {
		case opOpen:
			var s struct {
				session.Snapshot
				Cached bool `json:"cached"`
			}
			if o.Status != http.StatusCreated || json.Unmarshal(o.Body, &s) != nil {
				o.fail("open: HTTP %d %s", o.Status, bytes.TrimSpace(o.Body))
			} else if !s.Cached || s.Fingerprint != sc.OpenPrint {
				o.fail("open on %s: cached=%v fingerprint %s, replay %s", name, s.Cached, s.Fingerprint, sc.OpenPrint)
			} else {
				o.Key = res.PrefillKey[sc.Base]
			}
		case opRepair:
			var rr struct {
				Record session.RepairRecord `json:"record"`
				Error  string               `json:"error"`
			}
			want := sc.Faults[o.Fault]
			if o.Status != http.StatusOK || json.Unmarshal(o.Body, &rr) != nil || rr.Error != "" {
				o.fail("repair: HTTP %d %s", o.Status, bytes.TrimSpace(o.Body))
			} else if rr.Record.Fingerprint != want.Fingerprint || rr.Record.Rung != want.Rung || rr.Record.Outcome != want.Outcome {
				o.fail("repair %d of %s: %s/%s %s, replay %s/%s %s", o.Fault, name,
					rr.Record.Rung, rr.Record.Outcome, rr.Record.Fingerprint, want.Rung, want.Outcome, want.Fingerprint)
			} else {
				o.Key = want.Fingerprint
				if _, seen := res.Served[o.Key]; !seen {
					res.Served[o.Key] = served{Name: fmt.Sprintf("%s repair %d", name, o.Fault), Sol: want.Solution, Quality: true}
				}
			}
		case opClose:
			var s session.Snapshot
			if o.Status != http.StatusOK || json.Unmarshal(o.Body, &s) != nil {
				o.fail("close: HTTP %d %s", o.Status, bytes.TrimSpace(o.Body))
			} else if s.State != session.Closed || s.Fingerprint != sc.FinalPrint {
				o.fail("close of %s: state %s fingerprint %s, replay %s", name, s.State, s.Fingerprint, sc.FinalPrint)
			}
		}
	}
	// The pinned base solutions are served too: audit them as documents.
	for _, sc := range r.in.Scripts {
		res.Served[res.PrefillKey[sc.Base]] = served{Name: r.in.Reqs[sc.Base].Name, Doc: res.PrefillDoc[sc.Base]}
	}
}

// checkIsolation asserts the property that makes each workload isolate
// its layers, from the /metrics and journal deltas of the window.
func (r *runner) checkIsolation(res *e2eResult) {
	c := res.Counts
	n := float64(len(res.Ops))
	switch r.in.Workload {
	case serveCold:
		if c["count.cache_hits"] != 0 || c["count.cache_misses"] != n || c["count.jobs_accepted"] != n {
			res.problem("serve-cold isolation: hits %v misses %v accepted %v for %v distinct keys",
				c["count.cache_hits"], c["count.cache_misses"], c["count.jobs_accepted"], n)
		}
	case serveWarm:
		if c["count.cache_misses"] != 0 || c["count.cache_hits"] != n || c["count.jobs_accepted"] != 0 || res.JournalLines != 0 {
			res.problem("serve-warm isolation: hits %v misses %v accepted %v journal lines %d for %v requests",
				c["count.cache_hits"], c["count.cache_misses"], c["count.jobs_accepted"], res.JournalLines, n)
		}
	case sessionRepair:
		sessions := float64(len(r.in.Sessions))
		if c["count.cache_misses"] != 0 || c["count.cache_hits"] != sessions || c["count.jobs_accepted"] != 0 || c["count.jobs_finished"] != 0 {
			res.problem("session-repair isolation: hits %v misses %v accepted %v finished %v for %v sessions",
				c["count.cache_hits"], c["count.cache_misses"], c["count.jobs_accepted"], c["count.jobs_finished"], sessions)
		}
	}
}

// calibrate times a fixed, benchmark-owned kernel — SHA-256 over 8 MiB —
// and returns its wall time in ms. Read beside the timings, it shows how
// fast the host ran around the window.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	start := time.Now()
	for k := 0; k < 8; k++ {
		sum := sha256.Sum256(buf)
		buf[k] ^= sum[0]
	}
	return msf(time.Since(start))
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
