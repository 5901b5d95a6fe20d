package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/loadgen"
	"repro/internal/obs"
)

// ladder is the scaling run of mfload -nodes: the schedule replayed
// against real mfserved clusters of 1..nodes nodes.
type ladder struct {
	bin     string // the mfserved binary
	nodes   int
	sched   *loadgen.Schedule
	reqlog  io.Writer
	measure bool   // measure the Synthetic1 reference entry on rung 1
	trace   string // write the top rung's forwarded-request trace here ("" skips it)
}

// run runs the rungs in turn, appending two reports per rung to doc:
// the cold pass's, then the warm pass's.
func (l *ladder) run(ctx context.Context, doc *loadgen.Doc) error {
	for n := 1; n <= l.nodes; n++ {
		fmt.Fprintf(os.Stderr, "mfload: rung %d/%d — starting %d node(s)\n", n, l.nodes, n)
		if err := l.rung(ctx, n, doc); err != nil {
			return fmt.Errorf("rung %d: %w", n, err)
		}
	}
	return nil
}

// rung starts a fresh n-node cluster and replays the schedule on it
// twice. The cold pass sends item i to node i mod n, the warm pass to
// node (i+1) mod n: a node that never saw a request must still answer it
// as a hit, so warm throughput measures cluster-wide cache visibility.
func (l *ladder) rung(ctx context.Context, n int, doc *loadgen.Doc) error {
	dir, err := os.MkdirTemp("", "mfload-nodes-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := startCluster(ctx, l.bin, dir, n, len(l.sched.Items)+8)
	if err != nil {
		return err
	}
	defer c.stop()

	// Measured before the passes, so the entry records a real
	// single-node synthesis.
	if n == 1 && l.measure {
		if doc.Regress, err = loadgen.MeasureRegressEntry(nil, c.urls[0]); err != nil {
			return fmt.Errorf("measuring Synthetic1 reference: %w", err)
		}
	}
	var cold []loadgen.Outcome
	for pass, nodes := range [][]string{c.urls, slices.Concat(c.urls[1:], c.urls[:1])} {
		rep, outcomes, err := replay(ctx, nodes, l.sched, l.reqlog)
		rep.Nodes = n
		doc.Profiles = append(doc.Profiles, rep)
		if err != nil {
			return err
		}
		if pass == 0 {
			cold = outcomes
		}
	}
	if l.trace != "" && n == l.nodes {
		return l.traceForwarded(ctx, c.urls, cold)
	}
	return nil
}

// checkLadder applies checkRung to every rung of a ladder's reports,
// which come in cold/warm pairs from rung 1 up.
func checkLadder(reps []loadgen.Report, cpus int) error {
	var errs []error
	for i := 0; i+1 < len(reps); i += 2 {
		errs = append(errs, checkRung(reps[i], reps[i+1], reps[1], cpus))
	}
	return errors.Join(errs...)
}

// checkRung checks a rung's two passes against rung 1's warm pass: every
// request of both must complete, every warm one must be a cache hit,
// from 2 nodes on some must be answered by another node, and warm
// throughput must be at least twice rung 1's. The floor holds only where
// the host can run the nodes at once, a CPU each; on a smaller host it
// is recorded, not enforced.
func checkRung(cold, warm, rung1 loadgen.Report, cpus int) error {
	n := warm.Nodes
	for _, pass := range []struct {
		name string
		rep  loadgen.Report
	}{{"cold", cold}, {"warm", warm}} {
		if r := pass.rep; r.Completed != r.Scheduled {
			return fmt.Errorf("rung %d: %s pass completed %d/%d requests (failed %d, rejected %d, shed %d, errors %d)",
				n, pass.name, r.Completed, r.Scheduled, r.Failed, r.Rejected, r.Shed, r.Errors)
		}
	}
	switch {
	case warm.CacheHits != warm.Scheduled:
		return fmt.Errorf("rung %d: warm pass had %d/%d cache hits: the cluster cache is not content-addressing",
			n, warm.CacheHits, warm.Scheduled)
	case n >= 2 && warm.PeerServed == 0:
		return fmt.Errorf("rung %d: no warm request was answered by another node: the cluster cache is not visible across nodes", n)
	case n >= 2 && cpus >= n && warm.ThroughputPerS < 2*rung1.ThroughputPerS:
		return fmt.Errorf("rung %d: warm throughput only %.2fx rung 1's on a %d-CPU host",
			n, warm.ThroughputPerS/rung1.ThroughputPerS, cpus)
	}
	return nil
}

// rawTrace is the body of GET /v1/jobs/{id}/trace?raw=1.
type rawTrace struct {
	TraceID string     `json:"trace_id"`
	Route   string     `json:"route"`
	Spans   []obs.Span `json:"spans"`
}

// traceForwarded takes the cold pass's first completed request that the
// ring forwarded, fetches its merged trace from the node the pass sent it
// to, checks it and writes the Chrome trace document to l.trace.
func (l *ladder) traceForwarded(ctx context.Context, urls []string, cold []loadgen.Outcome) error {
	for _, o := range cold {
		if o.Status != "done" || o.Cached || o.Peer == "" {
			continue
		}
		// The pass sent item i to node i mod n, a batch where its first
		// member went.
		node := urls[(o.Index-o.Index%max(1, l.sched.Batch))%len(urls)]
		url := node + "/v1/jobs/" + o.JobID + "/trace"
		var raw rawTrace
		data, err := get(ctx, url+"?raw=1")
		if err == nil {
			err = json.Unmarshal(data, &raw)
		}
		var doc []byte
		if err == nil {
			doc, err = get(ctx, url)
		}
		if err == nil {
			err = checkTrace(raw, doc)
		}
		if err != nil {
			return fmt.Errorf("trace of job %s: %w", o.JobID, err)
		}
		if err := os.WriteFile(l.trace, doc, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mfload: job %s on %s, forwarded to %s: %d spans, trace written to %s\n",
			o.JobID, node, o.Peer, len(raw.Spans), l.trace)
		return nil
	}
	return errors.New("no completed request was forwarded by the ring")
}

// checkTrace checks that a forwarded request's merged trace is one
// timeline across nodes: a single trace ID, exactly one root, every
// parent present, spans from at least two nodes, and a Chrome document
// with span events and a process track per node.
func checkTrace(raw rawTrace, chrome []byte) error {
	if raw.Route != "forwarded" {
		return fmt.Errorf("route %q, want forwarded", raw.Route)
	}
	if raw.TraceID == "" {
		return errors.New("empty trace ID")
	}
	ids, nodes, roots := map[string]bool{}, map[string]bool{}, 0
	for _, sp := range raw.Spans {
		if sp.TraceID != raw.TraceID {
			return fmt.Errorf("span %s carries trace %q, want %q", sp.ID, sp.TraceID, raw.TraceID)
		}
		ids[sp.ID], nodes[sp.Node] = true, true
		if sp.Parent == "" {
			roots++
		}
	}
	if roots != 1 {
		return fmt.Errorf("merged trace has %d roots, want 1", roots)
	}
	for _, sp := range raw.Spans {
		if sp.Parent != "" && !ids[sp.Parent] {
			return fmt.Errorf("span %s references missing parent %s", sp.ID, sp.Parent)
		}
	}
	if len(nodes) < 2 {
		return fmt.Errorf("spans come from %d node(s), want >= 2", len(nodes))
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		return fmt.Errorf("chrome trace is not valid JSON: %w", err)
	}
	tracks, events := 0, 0
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			tracks++
		case ev.Ph == "X":
			events++
		}
	}
	if tracks < len(nodes) {
		return fmt.Errorf("chrome trace names %d process tracks, want >= %d", tracks, len(nodes))
	}
	if events == 0 {
		return errors.New("chrome trace has no span events")
	}
	return nil
}
