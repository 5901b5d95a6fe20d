// Command mfload is the load driver for mfserved: it replays a named,
// seeded traffic profile against a running server, an in-process one or
// a ladder of real multi-node clusters, and writes the aggregated
// SLO-style report as BENCH_load.json.
//
// Usage:
//
//	mfload -list
//	mfload -addr http://127.0.0.1:8080 -profile steady -duration 5s
//	mfload -spawn -profile heavytail -duration 5s -o BENCH_load.json
//	mfload -spawn -chaos 1 -profile session -o chaos_session.json
//	mfload -nodes 3 -mfserved ./mfserved -profile heavytail -o BENCH_cluster.json -trace cluster_trace.json
//	mfload -profile steady -duration 5s -batch 8           # ship via /v1/synthesize/batch
//	mfload -profile bursty -duration 5s -print-schedule    # inspect, don't run
//
// The request schedule — arrival offsets, request bodies, source tags —
// is a pure function of (profile, seed, duration, rate): two runs with
// the same flags submit byte-identical request sequences, which is what
// makes BENCH_load.json comparisons regressions rather than noise. The
// measured numbers (latency percentiles, error/shed/degraded/cache-hit
// rates) describe the server under test.
//
// -spawn boots an in-process mfserved on a loopback port for the run
// (what `make load-bench` uses); -addr points at any running instance
// (what the CI load job does, against a real separate process). -chaos
// SEED arms the spawned server with fault.DefaultChaos(SEED) and the
// degradation ladder: the report then counts fires per injection point,
// and a request that ends in neither a result nor a typed failure
// (outcome "error") fails the run.
//
// -nodes N runs the scaling ladder: for n = 1..N it starts n real
// -mfserved processes (one worker and GOMAXPROCS=1 each) as one
// consistent-hash ring and replays the schedule twice, a cold pass that
// sends item i to node i mod n and a warm pass that sends it to node
// (i+1) mod n. Every request of both passes must complete, every warm
// one must be a cache hit, some must be answered by another node from
// n = 2 on, and on a host with at least n CPUs warm throughput must
// reach twice rung 1's. With -trace FILE the
// top rung also checks the merged trace of one request its ring
// forwarded and writes the Chrome trace document to FILE.
//
// The report embeds a Synthetic1 reference entry measured over the same
// API (on rung 1 of a ladder), so `mfbench -regress BENCH_load.json
// -bench Synthetic1` gates a load run exactly like the other BENCH
// documents.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/loadgen"
	"repro/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mfload:", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError marks a bad invocation, which exits 2; any other error
// exits 1.
type usageError struct{ error }

func usagef(format string, args ...any) error { return usageError{fmt.Errorf(format, args...)} }

// run is the whole command. It returns instead of exiting, so the
// spawned server and nodes are always stopped and every written file is
// closed.
func run() (err error) {
	var (
		addr     = flag.String("addr", "", "base URL of a running mfserved (e.g. http://127.0.0.1:8080)")
		spawn    = flag.Bool("spawn", false, "boot an in-process mfserved on a loopback port for the run")
		profile  = flag.String("profile", "steady", "workload profile (see -list)")
		duration = flag.Duration("duration", 5*time.Second, "schedule horizon")
		rate     = flag.Float64("rate", 0, "arrival rate override, requests/s (0 = profile default)")
		conc     = flag.Int("concurrency", 0, "worker/in-flight cap override (0 = profile default)")
		seed     = flag.Uint64("seed", 1, "schedule seed; same seed, same byte-identical schedule")
		imax     = flag.Int("imax", 60, "annealing effort embedded in every request body")
		batch    = flag.Int("batch", 0, "group this many consecutive requests per POST /v1/synthesize/batch (0 = singles)")
		out      = flag.String("o", "BENCH_load.json", "report output path ('-' for stdout)")
		reqlog   = flag.String("reqlog", "", "append one JSON line per request outcome to this file")
		list     = flag.Bool("list", false, "list profiles and exit")
		printSch = flag.Bool("print-schedule", false, "print the canonical schedule bytes and exit without running")
		noRegr   = flag.Bool("no-regress", false, "skip the Synthetic1 reference measurement")
		spawnW   = flag.Int("spawn-workers", 0, "-spawn: worker-pool size (0 = NumCPU)")
		spawnQ   = flag.Int("spawn-queue", 256, "-spawn: queue capacity")
		chaos    = flag.Uint64("chaos", 0, "-spawn: arm the default fault-injection plan with this seed and the degradation ladder, count fires per point, fail on any non-terminal outcome, skip the reference (0 disables)")
		nodes    = flag.Int("nodes", 0, "run the scaling ladder on real clusters of 1..N mfserved processes")
		binPath  = flag.String("mfserved", "", "-nodes: the mfserved binary to run")
		traceOut = flag.String("trace", "", "-nodes >= 2: check the merged trace of a request the top rung forwarded and write it to this file")
	)
	flag.Parse()

	if *list {
		for _, p := range loadgen.Profiles() {
			loop := "closed-loop"
			if p.OpenLoop {
				loop = "open-loop"
			}
			fmt.Printf("%-10s %-12s %s\n", p.Name, loop, p.Description)
		}
		return nil
	}

	p, err := loadgen.ByName(*profile)
	if err != nil {
		return usageError{err}
	}
	sched, err := loadgen.Build(p, loadgen.Options{
		Seed:        *seed,
		Duration:    *duration,
		Rate:        *rate,
		Concurrency: *conc,
		Imax:        *imax,
		Batch:       *batch,
	})
	if err != nil {
		return usagef("building schedule: %v", err)
	}
	if *printSch {
		b, err := sched.Bytes()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	modes := 0
	for _, on := range []bool{*addr != "", *spawn, *nodes > 0} {
		if on {
			modes++
		}
	}
	switch {
	case modes != 1:
		return usagef("need exactly one of -addr (running mfserved), -spawn or -nodes")
	case *chaos != 0 && !*spawn:
		return usagef("-chaos arms the in-process server: it needs -spawn")
	case *nodes > 0 && *binPath == "":
		return usagef("-nodes needs -mfserved, the server binary to run")
	case *nodes > 16:
		return usagef("-nodes wants 1..16, got %d", *nodes)
	case *traceOut != "" && *nodes < 2:
		return usagef("-trace needs -nodes 2 or more: only a ring forwards")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var reqw io.Writer
	if *reqlog != "" {
		f, cerr := os.Create(*reqlog)
		if cerr != nil {
			return cerr
		}
		defer closeFile(f, &err)
		reqw = f
	}

	doc := loadgen.NewDoc(time.Now().UTC().Format(time.RFC3339))
	var runErr error
	switch {
	case *nodes > 0:
		l := &ladder{bin: *binPath, nodes: *nodes, sched: sched, reqlog: reqw, measure: !*noRegr, trace: *traceOut}
		runErr = l.run(ctx, doc)
	case *spawn:
		cfg := server.Config{Workers: *spawnW, QueueCap: *spawnQ}
		if *chaos != 0 {
			cfg.Fault = fault.DefaultChaos(*chaos)
			cfg.Degrade = core.Degrade{RipUpRounds: 3, ReducedEffort: true}
		}
		// A reference synthesized under injected faults is no cost
		// reference, so a chaos run records none.
		runErr = runSpawned(ctx, cfg, sched, reqw, !*noRegr && *chaos == 0, doc)
	default:
		runErr = runServer(ctx, *addr, sched, reqw, !*noRegr, doc)
	}

	// The report is written before any check, so a failing run still
	// leaves its numbers.
	if len(doc.Profiles) > 0 {
		if err := writeDoc(*out, doc); err != nil {
			return errors.Join(runErr, fmt.Errorf("writing report: %w", err))
		}
		for _, rep := range doc.Profiles {
			printReport(rep)
		}
	}
	checks := check(p, doc, *chaos != 0)
	if *nodes > 0 {
		checks = errors.Join(checks, checkLadder(doc.Profiles, runtime.NumCPU()))
	}
	return errors.Join(runErr, checks)
}

// runSpawned boots an in-process mfserved on a loopback port, replays
// the schedule against it, and records the fires of its fault plan.
func runSpawned(ctx context.Context, cfg server.Config, sched *loadgen.Schedule, reqlog io.Writer, measure bool, doc *loadgen.Doc) error {
	srv, err := server.New(cfg)
	if err != nil {
		return fmt.Errorf("spawning server: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		srv.Shutdown(ctx)
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("spawning server: %w", err)
	}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "mfload: spawned mfserved at %s\n", base)
	err = runServer(ctx, base, sched, reqlog, measure, doc)
	if cfg.Fault != nil {
		doc.FaultFires = map[string]int64{}
		for pt, st := range cfg.Fault.Stats() {
			if st.Fires > 0 {
				doc.FaultFires[string(pt)] = st.Fires
			}
		}
	}
	return err
}

// runServer replays the schedule once against the server at base and
// appends its report to doc.
func runServer(ctx context.Context, base string, sched *loadgen.Schedule, reqlog io.Writer, measure bool, doc *loadgen.Doc) error {
	// Probe the server before offering load, so a typo'd -addr fails
	// fast instead of producing a report that is 100% transport errors.
	if _, err := get(ctx, base+"/healthz"); err != nil {
		return fmt.Errorf("server not reachable: %w", err)
	}
	// The Synthetic1 reference is measured before the run: against a
	// freshly booted server the job is a true cold synthesis, so the
	// entry records a real CPU time. Against a warm server it may be a
	// cache hit (ns_per_op 0) — the cost gate is exact either way, and
	// a zero reference time merely disables the (noisy) time ratio.
	if measure {
		var err error
		if doc.Regress, err = loadgen.MeasureRegressEntry(nil, base); err != nil {
			return fmt.Errorf("measuring Synthetic1 reference: %w", err)
		}
	}
	fmt.Fprintf(os.Stderr, "mfload: %s — %d requests over %v against %s\n",
		sched.Profile, len(sched.Items), sched.Duration, base)
	rep, _, err := replay(ctx, []string{base}, sched, reqlog)
	doc.Profiles = append(doc.Profiles, rep)
	return err
}

// replay runs the schedule once against nodes and summarizes what it
// measured, including when ctx cut the run short.
func replay(ctx context.Context, nodes []string, sched *loadgen.Schedule, reqlog io.Writer) (loadgen.Report, []loadgen.Outcome, error) {
	runner := &loadgen.Runner{Nodes: nodes, ReqLog: reqlog}
	start := time.Now()
	outcomes, err := runner.Run(ctx, sched)
	if err != nil {
		err = fmt.Errorf("run interrupted: %w", err)
	}
	return loadgen.Summarize(sched, outcomes, time.Since(start)), outcomes, err
}

// check applies every run's own assertions to its reports.
func check(p loadgen.Profile, doc *loadgen.Doc, chaos bool) error {
	var errs []error
	for _, rep := range doc.Profiles {
		// An all-errors run means the server was absent or broken; fail
		// so CI cannot archive a vacuous report as success.
		if rep.Completed == 0 {
			errs = append(errs, fmt.Errorf("%s: no request completed (errors %d, shed %d, rejected %d)",
				rep.Profile, rep.Errors, rep.Shed, rep.Rejected))
		}
		// Profiles that declare a shed envelope (overload) must land
		// inside it: a zero shed rate means the server was never
		// saturated and the run proved nothing about the breaker/shed
		// path; a rate at the ceiling means nothing got through.
		if p.ShedCeil > 0 && (rep.ShedRate < p.ShedFloor || rep.ShedRate > p.ShedCeil) {
			errs = append(errs, fmt.Errorf("%s: shed rate %.3f outside the declared envelope [%.2f, %.2f]",
				rep.Profile, rep.ShedRate, p.ShedFloor, p.ShedCeil))
		}
		// Under injected faults a request may fail, be shed or degrade,
		// but it must end in one of those typed outcomes.
		if chaos && rep.Errors > 0 {
			errs = append(errs, fmt.Errorf("%s: %d of %d requests never reached a terminal outcome under chaos",
				rep.Profile, rep.Errors, rep.Scheduled))
		}
	}
	return errors.Join(errs...)
}

func printReport(rep loadgen.Report) {
	name := rep.Profile
	if rep.Nodes > 0 {
		name = fmt.Sprintf("%s on %d node(s), %d peer-served", name, rep.Nodes, rep.PeerServed)
	}
	fmt.Fprintf(os.Stderr,
		"mfload: %s — %d/%d done (%.0f/s), p50 %.1fms p95 %.1fms p99 %.1fms, cache %.0f%%, shed %.0f%%, err %.0f%%\n",
		name, rep.Completed, rep.Scheduled, rep.ThroughputPerS,
		rep.LatencyMs.P50, rep.LatencyMs.P95, rep.LatencyMs.P99,
		rep.CacheHitRate*100, rep.ShedRate*100, rep.ErrorRate*100)
	if rep.Sessions > 0 {
		fmt.Fprintf(os.Stderr,
			"mfload: %s — %d sessions, %d repairs (%d repaired, %d degraded), %d abandoned\n",
			name, rep.Sessions, rep.Repairs, rep.Repaired, rep.DegradedRepairs, rep.Abandoned)
	}
}

// writeDoc writes the report to path, or to stdout for "-".
func writeDoc(path string, doc *loadgen.Doc) (err error) {
	if path == "-" {
		return doc.Write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer closeFile(f, &err)
	return doc.Write(f)
}

// closeFile closes a written file, reporting its error through *err
// unless an earlier one is there.
func closeFile(f *os.File, err *error) {
	if cerr := f.Close(); cerr != nil && *err == nil {
		*err = cerr
	}
}

// get fetches url and returns its body; any status but 200 is an error.
func get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(data))
	}
	return data, err
}
