package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/obs"
)

// TestCheckRung pins the ladder's contract for one rung: both passes
// complete every request, the warm pass is all hits, some are
// peer-served from two nodes on, and the 2x throughput floor applies
// only where the host has a CPU per node.
func TestCheckRung(t *testing.T) {
	t.Parallel()
	pass := func(nodes, done, hits, peer int, tput float64) loadgen.Report {
		return loadgen.Report{Nodes: nodes, Scheduled: 12, Completed: done, Failed: 12 - done,
			CacheHits: hits, PeerServed: peer, ThroughputPerS: tput}
	}
	cold := func(nodes int) loadgen.Report { return pass(nodes, 12, 0, 0, 50) }
	rung1 := pass(1, 12, 12, 0, 100)
	for _, tc := range []struct {
		name       string
		cold, warm loadgen.Report
		cpus       int
		want       string // substring of the error, "" for pass
	}{
		{"rung 1 all hits", cold(1), rung1, 1, ""},
		{"rung 1 missed hit", cold(1), pass(1, 12, 11, 0, 100), 4, "11/12 cache hits"},
		{"scaled", cold(2), pass(2, 12, 12, 5, 250), 2, ""},
		// A failed cold request for a key the schedule repeats still
		// leaves the warm pass all hits.
		{"failed cold request", pass(2, 11, 0, 0, 50), pass(2, 12, 12, 5, 250), 2, "cold pass completed 11/12 requests (failed 1"},
		{"failed warm request", cold(2), pass(2, 11, 11, 5, 250), 2, "warm pass completed 11/12"},
		{"missed hit", cold(2), pass(2, 12, 11, 5, 250), 2, "11/12 cache hits"},
		{"no peer serves", cold(2), pass(2, 12, 12, 0, 250), 2, "not visible across nodes"},
		{"below floor", cold(2), pass(2, 12, 12, 5, 150), 2, "only 1.50x"},
		{"below floor on a small host", cold(3), pass(3, 12, 12, 5, 150), 2, ""},
		{"exactly at the floor", cold(3), pass(3, 12, 12, 5, 200), 3, ""},
	} {
		err := checkRung(tc.cold, tc.warm, rung1, tc.cpus)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// checkLadder pairs the reports cold/warm and checks every rung
	// against rung 1's warm pass; a rung cut short after its cold pass
	// is left to the run's own error.
	reps := []loadgen.Report{cold(1), rung1, cold(2), pass(2, 12, 12, 0, 300), pass(3, 0, 0, 0, 0)}
	if err := checkLadder(reps, 2); err == nil || !strings.HasPrefix(err.Error(), "rung 2: no warm request") ||
		strings.Contains(err.Error(), "rung 3") {
		t.Errorf("checkLadder = %v, want only rung 2's peer failure", err)
	}
}

// TestCheckTrace pins the merged-trace checks on a good forwarded trace
// and on one broken in each way the checks exist for.
func TestCheckTrace(t *testing.T) {
	t.Parallel()
	good := func() rawTrace {
		return rawTrace{TraceID: "t1", Route: "forwarded", Spans: []obs.Span{
			{TraceID: "t1", ID: "a.0", Node: "http://n0", Name: "request"},
			{TraceID: "t1", ID: "a.1", Parent: "a.0", Node: "http://n0", Name: "forward"},
			{TraceID: "t1", ID: "b.0", Parent: "a.1", Node: "http://n1", Name: "synthesize"},
		}}
	}
	for _, tc := range []struct {
		name   string
		mutate func(*rawTrace)
		want   string
	}{
		{"good", func(*rawTrace) {}, ""},
		{"two roots", func(r *rawTrace) { r.Spans[2].Parent = "" }, "2 roots"},
		{"foreign trace ID", func(r *rawTrace) { r.Spans[1].TraceID = "t2" }, `carries trace "t2"`},
		{"missing parent", func(r *rawTrace) { r.Spans[2].Parent = "a.9" }, "missing parent a.9"},
		{"one node track", func(r *rawTrace) { r.Spans[2].Node = "http://n0" }, "1 node(s)"},
		{"not forwarded", func(r *rawTrace) { r.Route = "local" }, "want forwarded"},
	} {
		raw := good()
		tc.mutate(&raw)
		var chrome bytes.Buffer
		if err := obs.ChromeTrace(&chrome, raw.Spans); err != nil {
			t.Fatal(err)
		}
		err := checkTrace(raw, chrome.Bytes())
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// The Chrome document must carry a track per node: one rendered from
	// a single node's spans fails against the two-node span set.
	raw := good()
	var oneTrack bytes.Buffer
	if err := obs.ChromeTrace(&oneTrack, raw.Spans[:2]); err != nil {
		t.Fatal(err)
	}
	if err := checkTrace(raw, oneTrack.Bytes()); err == nil || !strings.Contains(err.Error(), "1 process tracks") {
		t.Errorf("one-track chrome doc: error %v", err)
	}
}

// TestRungLeavesNoNode runs a 2-node rung of real mfserved processes to
// its end, and again cancelled in the middle of its cold pass, and
// proves after each that none of the nodes it started is still alive.
func TestRungLeavesNoNode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds mfserved and runs real node processes")
	}
	if runtime.GOOS != "linux" {
		t.Skip("finds the node processes through /proc")
	}
	bin := filepath.Join(t.TempDir(), "mfserved")
	if out, err := exec.Command("go", "build", "-o", bin, "../mfserved").CombinedOutput(); err != nil {
		t.Fatalf("building mfserved: %v\n%s", err, out)
	}
	bin, err := filepath.EvalSymlinks(bin) // /proc shows the resolved path
	if err != nil {
		t.Fatal(err)
	}
	p, err := loadgen.ByName("heavytail")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := loadgen.Build(p, loadgen.Options{Seed: 1, Duration: time.Second, Imax: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, cancelMidPass := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		var (
			seen   bool
			pids   []int
			pidErr error
		)
		// The first outcome lands mid-pass, with both nodes up.
		spy := writerFunc(func(b []byte) (int, error) {
			if !seen {
				seen = true
				pids, pidErr = nodePIDs(bin)
				if cancelMidPass {
					cancel()
				}
			}
			return len(b), nil
		})
		l := &ladder{bin: bin, nodes: 2, sched: sched, reqlog: spy}
		err := l.rung(ctx, 2, loadgen.NewDoc(""))
		cancel()
		if cancelMidPass != errors.Is(err, context.Canceled) {
			t.Fatalf("cancel mid-pass %v: rung returned %v", cancelMidPass, err)
		}
		if pidErr != nil || len(pids) != 2 {
			t.Fatalf("cancel mid-pass %v: saw node PIDs %v (%v) mid-pass, want 2", cancelMidPass, pids, pidErr)
		}
		left, err := nodePIDs(bin)
		if err != nil || len(left) > 0 {
			t.Fatalf("cancel mid-pass %v: nodes %v (%v) outlived the rung (started %v)", cancelMidPass, left, err, pids)
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }

// nodePIDs lists the live processes running the binary bin.
func nodePIDs(bin string) ([]int, error) {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil, err
	}
	var pids []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if exe, err := os.Readlink("/proc/" + e.Name() + "/exe"); err == nil && exe == bin {
			pids = append(pids, pid)
		}
	}
	return pids, nil
}
