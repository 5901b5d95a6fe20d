// Command svcbench is the repository's service benchmark: it spawns the
// real mfserved (journal on, default workers and log level, pprof on a
// loopback debug port), drives one workload from a single client
// process, times the server from outside, checks every output, and
// prints each metric by name and unit. With --trace 1 it follows the
// untraced run with a sequential in-process replay that times every
// layer.
//
// Run it from the repository root through the launcher, which builds
// mfserved and this command from source:
//
//	bash svcbench/run.sh --workload serve-warm --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Diagnostics go to standard error. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	runtime.GOMAXPROCS(conns)
	var (
		workload = flag.String("workload", "", "serve-cold, serve-warm or session-repair")
		seed     = flag.Uint64("seed", 1, "input seed: the same seed sends the same requests")
		seconds  = flag.Int("seconds", 25, "run length: the open-loop schedules span it and the closed loop is sized to it")
		trace    = flag.Int("trace", 0, "0: print the end-to-end metrics; 1: also replay the run traced and print the per-layer metrics")
		bin      = flag.String("mfserved", "", "mfserved binary to spawn")
		scratch  = flag.String("scratch", "", "build directory: binaries, journals and span files; swept for leftover processes at the end")
	)
	flag.Parse()
	os.Exit(run(*workload, *seed, *seconds, *trace, *bin, *scratch))
}

// run runs the benchmark, then sweeps for processes it left behind. It
// prints the result only when the run completed; a run that could not
// measure, or was interrupted, exits non-zero.
func run(workload string, seed uint64, seconds, trace int, bin, scratch string) int {
	if bin == "" || scratch == "" {
		fmt.Fprintln(os.Stderr, "svcbench: --mfserved and --scratch are required (use run.sh)")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := measure(ctx, workload, seed, seconds, trace, bin, scratch)
	left := sweep(scratch)
	for _, l := range left {
		fmt.Fprintln(os.Stderr, "svcbench: FAIL: process left behind, killed:", l)
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	rep.Correct = rep.Correct && len(left) == 0
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// measure generates the inputs, runs the e2e run (and the traced replay
// when asked) and computes the report. A panic is reported as an error,
// after the deferred server stops have run.
func measure(ctx context.Context, workload string, seed uint64, seconds, trace int, bin, scratch string) (rep report, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	if trace != 0 && trace != 1 {
		return rep, errors.New("--trace must be 0 or 1")
	}
	genStart := time.Now()
	in, err := generate(workload, seed, seconds)
	if err != nil {
		return rep, err
	}
	fmt.Fprintf(os.Stderr, "svcbench: %s seed %d: %d requests, %d sessions generated in %.2fs; inputs sha256 %s\n",
		workload, seed, len(in.Ops), len(in.Sessions), time.Since(genStart).Seconds(), in.digest())

	dir := filepath.Join(scratch, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return rep, err
	}
	defer os.RemoveAll(dir)
	r := &runner{in: in, bin: bin, scratch: dir, client: newClient()}
	res, err := r.runE2E(ctx)
	if err != nil {
		return rep, err
	}
	m, attempted, failed := e2eMetrics(in, res)
	problems := res.Problems
	for _, o := range res.Ops {
		if !o.ok() && len(problems) < 20 {
			problems = append(problems, "request failed: "+o.Err)
		}
	}
	if trace == 1 {
		t, err := runTraced(ctx, in, res, dir)
		if err != nil {
			return rep, err
		}
		spans := filepath.Join(scratch, fmt.Sprintf("spans-%s-%d.json", workload, seed))
		if err := t.writeSpans(spans); err != nil {
			return rep, err
		}
		fmt.Fprintf(os.Stderr, "svcbench: %d spans written to %s\n", len(t.tr.spans), spans)
		m = layerMetrics(t, res)
		problems = append(problems, t.problems...)
		problems = append(problems, crossCheck(t, res)...)
		printLayers(t)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "svcbench: FAIL:", p)
	}
	return report{Correct: len(problems) == 0 && failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// cpuSlices is, for each CPU slice of the window, the server's CPU in
// the slice ÷ the ops that completed in it; cpu_ms_per_op is their
// median. A slice shorter than half a cpuSlice (the window's tail),
// unless it is the whole window, and a slice without a completed op are
// left out; their CPU still counts in the window total.
func cpuSlices(samples []cpuSample, done []time.Time) []float64 {
	var per []float64
	for i := 1; i < len(samples); i++ {
		from, to := samples[i-1].At, samples[i].At
		if to.Sub(from) < cpuSlice/2 && len(samples) > 2 {
			continue
		}
		n := 0
		for _, d := range done {
			if !d.Before(from) && d.Before(to) {
				n++
			}
		}
		if n > 0 {
			per = append(per, msf(samples[i].CPU-samples[i-1].CPU)/float64(n))
		}
	}
	return per
}

// e2eMetrics computes the end-to-end metrics of an untraced run, plus
// the attempted/failed request counts. An op is a synthesis request on
// the open-loop workloads and a repair on session-repair; session opens
// and closes count as requests but not as ops.
func e2eMetrics(in *inputs, res *e2eResult) (map[string]metric, int, int) {
	limit := sloLimit[in.Workload]
	m := map[string]metric{}
	var okOps []*opResult
	var done []time.Time
	ops, withinLimit, failed := 0, 0, 0
	for i := range res.Ops {
		o := &res.Ops[i]
		if !o.ok() {
			failed++
		}
		if !o.latencyOp() {
			continue
		}
		ops++
		if o.ok() {
			okOps = append(okOps, o)
			done = append(done, o.Done)
			if o.Done.Sub(o.Due) <= limit {
				withinLimit++
			}
		}
	}
	sort.SliceStable(okOps, func(i, j int) bool { return okOps[i].Due.Before(okOps[j].Due) })
	lat := make([]float64, len(okOps))
	for i, o := range okOps {
		lat[i] = msf(o.Done.Sub(o.Due))
	}
	res.Latency = lat
	for _, pm := range []int{500, 900} {
		name := fmt.Sprintf("latency_ms_p%d", pm/10)
		if v, err := blockPercentile(lat, pm); err != nil {
			res.problem("%s: %v", name, err)
		} else {
			m[name] = metric{v, "ms"}
		}
	}
	whole := map[int]string{}
	for _, pm := range []int{500, 900, 990} {
		whole[pm] = "refused"
		if v, err := percentile(lat, pm); err == nil {
			whole[pm] = fmt.Sprintf("%.3f ms", v)
		}
	}
	good := len(lat)
	if ops > 0 {
		m["slo_attainment"] = metric{float64(withinLimit) / float64(ops), "ratio"}
	}
	if n := len(res.Ops); n > 0 {
		m["success_rate"] = metric{float64(n-failed) / float64(n), "ratio"}
	}
	perSlice := cpuSlices(res.CPUSamples, done)
	if len(perSlice) > 0 {
		m["cpu_ms_per_op"] = metric{median(perSlice), "ms"}
	} else {
		res.problem("cpu_ms_per_op: no CPU slice holds a completed op")
	}
	if good > 0 {
		m["alloc_kb_per_op"] = metric{res.Mem.TotalAlloc / 1024 / float64(good), "KiB"}
	}
	m["peak_rss_mb"] = metric{res.PeakRSS, "MiB"}
	var makespan, length, wash float64
	for _, sv := range res.Served {
		if sv.Quality && sv.Sol != nil {
			q := sv.Sol.Metrics()
			makespan += float64(q.ExecutionTime)
			length += float64(q.ChannelLength)
			wash += float64(q.ChannelWashTime)
		}
	}
	m["makespan_ms_sum"] = metric{makespan, "ms"}
	m["channel_length_um_sum"] = metric{length, "um"}
	m["channel_wash_ms_sum"] = metric{wash, "ms"}
	m["setup_s"] = metric{median(res.Setup), "s"}

	late := fmt.Sprintf("max %.3f ms", maxOf(res.Late))
	if v, err := percentile(res.Late, 990); err == nil {
		late = fmt.Sprintf("p99 %.3f ms, %s", v, late)
	}
	busy := "n/a (no queued jobs)"
	if in.Workload == serveCold {
		var d time.Duration
		for i := range res.Ops {
			if o := &res.Ops[i]; o.ok() {
				d += o.Done.Sub(o.Started)
			}
		}
		busy = fmt.Sprintf("%.2f", d.Seconds()/res.Window.Seconds()/float64(runtime.NumCPU()))
	}
	fmt.Fprintf(os.Stderr, "svcbench: %d requests, %d ops, %d failed; whole-window latency p50 %s, p90 %s, p99 %s; window %.2fs; server CPU %.2fs (%.3f ms per op over the whole window, %.3f to %.3f in %d slices); allocated %.1f MiB in %.0f objects, %.0f GCs; workers busy %s; host steal %.3f; calibration %.2f ms; send lateness %s; journal lines %d; setups %.3v s\n",
		len(res.Ops), ops, failed, whole[500], whole[900], whole[990], res.Window.Seconds(), res.CPU.Seconds(),
		msf(res.CPU)/math.Max(1, float64(good)), minOf(perSlice), maxOf(perSlice), len(perSlice),
		res.Mem.TotalAlloc/(1<<20), res.Mem.Mallocs, res.Mem.NumGC, busy, res.Steal, median(res.Calib), late,
		res.JournalLines, res.Setup)
	return m, len(res.Ops), failed
}
