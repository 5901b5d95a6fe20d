package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/schedule"
	"repro/internal/session"
)

func TestInputsDeterministicPerSeed(t *testing.T) {
	bodies := func(in *inputs) [][]byte {
		var out [][]byte
		for _, r := range in.Reqs {
			out = append(out, r.Body)
		}
		for _, sc := range in.Scripts {
			for _, f := range sc.Faults {
				out = append(out, f.Body)
			}
		}
		return out
	}
	for _, w := range []string{serveCold, serveWarm, sessionRepair} {
		a, err := generate(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(w, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() != b.digest() || !slices.EqualFunc(bodies(a), bodies(b), bytes.Equal) ||
			!slices.Equal(a.Ops, b.Ops) || !slices.Equal(a.Sessions, b.Sessions) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", w)
		}
		if a.digest() == c.digest() || slices.EqualFunc(bodies(a), bodies(c), bytes.Equal) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", w)
		}
	}
}

func TestColdKeysNeverRepeat(t *testing.T) {
	in, err := generate(serveCold, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, ri := range in.Setup {
		seen[string(in.Reqs[ri].Body)] = true
	}
	for _, op := range in.Ops {
		body := string(in.Reqs[op.Req].Body)
		if seen[body] {
			t.Fatalf("request body sent twice: %s", body)
		}
		seen[body] = true
	}
}

func TestOpenLoopArrivalsSorted(t *testing.T) {
	in, err := generate(serveWarm, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(in.Ops); i++ {
		if in.Ops[i].At < in.Ops[i-1].At {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, in.Ops[i].At, i-1, in.Ops[i-1].At)
		}
	}
	if last := in.Ops[len(in.Ops)-1].At; last.Seconds() >= 3 {
		t.Fatalf("last arrival %v outside the 3 s run", last)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n, permille int
		want        float64
	}{
		{20, 500, 10},    // ceil(0.5*20) = 10, ten beyond
		{21, 500, 11},    // ceil(10.5) = 11
		{1000, 990, 990}, // exactly ten beyond
		{2000, 990, 1980},
		{100, 900, 90},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.permille)
		if err != nil || got != c.want {
			t.Errorf("p%d‰ of 1..%d = %v, %v; want %v", c.permille, c.n, got, err, c.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	var refused errRefused
	for _, c := range []struct{ n, permille int }{{19, 500}, {999, 990}, {0, 500}, {99, 900}} {
		xs := make([]float64, c.n)
		if _, err := percentile(xs, c.permille); !errors.As(err, &refused) {
			t.Errorf("p%d‰ of %d samples: err %v, want a refusal", c.permille, c.n, err)
		}
	}
}

// TestBlockPercentile checks that latency percentiles are the median
// over due-ordered blocks: a burst confined to one block does not move
// them, and a sample that cannot fill a block is refused.
func TestBlockPercentile(t *testing.T) {
	xs := make([]float64, 5*latencyBlock+3)
	for i := range xs {
		xs[i] = float64(i % latencyBlock)
	}
	for i := latencyBlock; i < 2*latencyBlock; i++ {
		xs[i] = 1000 // a stall covering the second block
	}
	p50, err := blockPercentile(xs, 500)
	if err != nil || p50 != latencyBlock/2-1 {
		t.Fatalf("block p50 = %v, %v; want %d", p50, err, latencyBlock/2-1)
	}
	var refused errRefused
	if _, err := blockPercentile(xs[:latencyBlock-1], 500); !errors.As(err, &refused) {
		t.Fatalf("block p50 of %d samples: err %v, want a refusal", latencyBlock-1, err)
	}
}

// TestCPUSlices checks that cpu_ms_per_op is the median of
// the slices' CPU per op: one contended slice does not move it, and the
// short tail slice and a slice without ops are left out.
func TestCPUSlices(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	ms := time.Millisecond
	samples := []cpuSample{
		{at(0), 0},
		{at(cpuSlice), 200 * ms},                 // 2 ops: 100 ms per op
		{at(2 * cpuSlice), 500 * ms},             // 3 ops: 100
		{at(3 * cpuSlice), 900 * ms},             // 1 op: 400, a contended slice
		{at(4 * cpuSlice), 1000 * ms},            // 2 ops: 50
		{at(5 * cpuSlice), 1100 * ms},            // no op: left out
		{at(5*cpuSlice + cpuSlice/4), 1900 * ms}, // short tail: left out
	}
	var done []time.Time
	for _, d := range []time.Duration{
		1, 2,
		cpuSlice, cpuSlice + 1, cpuSlice + 2,
		2*cpuSlice + 5,
		3 * cpuSlice, 4*cpuSlice - 1,
		5*cpuSlice + 1,
	} {
		done = append(done, at(d))
	}
	got := cpuSlices(samples, done)
	if want := []float64{100, 100, 400, 50}; !slices.Equal(got, want) {
		t.Fatalf("cpuSlices = %v, want %v", got, want)
	}
	if m := median(got); m != 100 {
		t.Fatalf("median of the slices = %v, want 100 ms: one contended slice must not move it", m)
	}
	if got := cpuSlices(samples[:1], done); len(got) != 0 {
		t.Fatalf("cpuSlices of one sample = %v, want none", got)
	}
	// A window shorter than half a slice is one slice, not none.
	short := []cpuSample{{at(0), 0}, {at(cpuSlice / 4), 30 * ms}}
	if got := cpuSlices(short, done[:2]); !slices.Equal(got, []float64{15}) {
		t.Fatalf("cpuSlices of a short window = %v, want [15]", got)
	}
}

// TestJobsStayPollable checks that one server's life — the pre-fill
// plus an open-loop window — creates no more job records than mfserved
// keeps pollable, so every job can be read after the window.
func TestJobsStayPollable(t *testing.T) {
	for _, w := range []string{serveCold, serveWarm} {
		in, err := generate(w, 1, 30)
		if err != nil {
			t.Fatalf("%s at 30 s: %v", w, err)
		}
		if n := len(in.Setup) + len(in.Ops); n > retainedJobs {
			t.Fatalf("%s at 30 s creates %d jobs, more than %d", w, n, retainedJobs)
		}
	}
	if _, err := generate(serveWarm, 1, 60); err == nil {
		t.Fatal("serve-warm at 60 s would outrun job retention but was generated")
	}
}

// TestFaultsOnLiveChannels replays every session-repair script against a
// fresh session and checks, independently of the generator, that each
// reported cell lies on a routed channel whose consumer has not executed
// at the report's instant, and that instants never go back.
func TestFaultsOnLiveChannels(t *testing.T) {
	in, err := generate(sessionRepair, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Scripts) == 0 {
		t.Fatal("no session scripts")
	}
	for si, sc := range in.Scripts {
		sol, err := canonical(in.Reqs[sc.Base])
		if err != nil {
			t.Fatal(err)
		}
		sess, err := session.New("test", sol, in.Reqs[sc.Base].Alloc)
		if err != nil {
			t.Fatal(err)
		}
		cut := sess.Snapshot().Cut
		for k, f := range sc.Faults {
			cur := sess.Solution()
			if f.Report.At < cut {
				t.Fatalf("script %d fault %d at %v precedes the cut %v", si, k, f.Report.At, cut)
			}
			if len(f.Report.Cells) != 1 || len(f.Report.Comps) != 0 {
				t.Fatalf("script %d fault %d is not a single-cell report: %+v", si, k, f.Report)
			}
			cell := f.Report.Cells[0]
			executed := schedule.Executed(cur.Schedule, f.Report.At)
			live := false
			for _, rt := range cur.Routing.Routes {
				var consumer int
				for _, tr := range cur.Schedule.Transports {
					if tr.ID == rt.Task.ID {
						consumer = int(tr.Consumer)
					}
				}
				if executed[consumer] || len(rt.Path) < 3 {
					continue // executed, or no interior cell
				}
				for _, c := range rt.Path[1 : len(rt.Path)-1] {
					live = live || c == cell
				}
			}
			if !live {
				t.Fatalf("script %d fault %d: cell %v is on no channel ahead of %v", si, k, cell, f.Report.At)
			}
			rec, err := sess.Repair(context.Background(), f.Report)
			if err != nil {
				t.Fatalf("script %d fault %d: %v", si, k, err)
			}
			if rec.Fingerprint != f.Fingerprint {
				t.Fatalf("script %d fault %d: replay fingerprint %s, script %s", si, k, rec.Fingerprint, f.Fingerprint)
			}
			cut = f.Report.At
		}
		if got := sess.Snapshot().Fingerprint; got != sc.FinalPrint {
			t.Fatalf("script %d: final fingerprint %s, script %s", si, got, sc.FinalPrint)
		}
	}
}

// TestNoProcessOutlivesRun runs the benchmark through its launcher from
// the repository root, once to the end and once sent SIGTERM inside its
// timed window, and checks that neither leaves a process behind: nothing
// whose executable, working directory or go command environment lies
// under the build directory, which covers mfserved and a go telemetry
// sidecar alike.
func TestNoProcessOutlivesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns mfserved")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	buildDir := filepath.Join(root, ".bench_build", "svcbench")
	start := func(seconds string) (*exec.Cmd, *bytes.Buffer, *bufio.Scanner) {
		cmd := exec.Command("bash", "svcbench/run.sh", "--workload", serveWarm, "--seed", "3", "--seconds", seconds, "--trace", "0")
		cmd.Dir = root
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd, &stdout, bufio.NewScanner(stderr)
	}
	leftovers := func(when string) {
		if left := sweep(buildDir); len(left) > 0 {
			t.Errorf("after %s: processes left behind: %v", when, left)
		}
	}

	cmd, stdout, stderr := start("2")
	for stderr.Scan() {
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("normal run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil || !rep.Correct || rep.Attempted == 0 {
		t.Fatalf("normal run printed %q (%v)", lines[len(lines)-1], err)
	}
	leftovers("a normal run")

	cmd, stdout, stderr = start("20")
	for stderr.Scan() {
		if strings.Contains(stderr.Text(), windowOpen) {
			break
		}
	}
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for stderr.Scan() {
	}
	if err := cmd.Wait(); err == nil {
		t.Fatal("a run sent SIGTERM exited 0")
	}
	if stdout.Len() != 0 {
		t.Fatalf("a run sent SIGTERM printed a result: %q", stdout.String())
	}
	leftovers("SIGTERM inside the window")
	if _, err := os.Stat(buildDir); err != nil {
		t.Fatal(err)
	}
}
