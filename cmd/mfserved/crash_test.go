// Crash-recovery smoke: build the real binary, load it with queued work,
// SIGKILL it mid-queue, restart it on the same journal, and prove every
// accepted job reaches a terminal outcome with no duplicated completions.
// This is the only test that exercises the journal against a hard
// process death rather than an orderly shutdown.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/journal"
)

var addrRe = regexp.MustCompile(`addr=(127\.0\.0\.1:\d+)`)

// startServed launches the built binary and returns its process and base
// URL once the listening log line appears.
func startServed(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := addrRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, "http://" + addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("server never logged its listen address")
		return nil, ""
	}
}

func submit(t *testing.T, base, body string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/synthesize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d: %s", resp.StatusCode, data)
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	return sub.JobID
}

// metricsNum reads one series (`name` or `name{labels}`, labels as
// rendered) from the server's /metrics exposition.
func metricsNum(t *testing.T, base, series string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("/metrics %s = %q: %v", series, v, err)
			}
			return int64(n)
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
}

func TestCrashRecoveryReplaysAcceptedJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and SIGKILLs the real binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "mfserved")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building mfserved: %v", err)
	}
	jpath := filepath.Join(dir, "jobs.journal")

	// Process 1: one worker pinned on a deliberately enormous anneal, three
	// fast jobs stuck in the queue behind it. Then die without warning.
	cmd1, base1 := startServed(t, bin,
		"-addr", "127.0.0.1:0", "-journal", jpath, "-workers", "1", "-queue", "16")
	long := `{"bench":"CPA","options":{"imax":100000,"seed":1}}`
	longID := submit(t, base1, long)
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base1 + "/v1/jobs/" + longID)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var job struct {
			Status string `json:"status"`
		}
		json.Unmarshal(data, &job)
		if job.Status == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("long job stuck in %q", job.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		submit(t, base1, fmt.Sprintf(`{"bench":"PCR","options":{"imax":60,"seed":%d}}`, i+1))
	}
	if err := cmd1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd1.Wait()

	// Process 2: same journal. All four accepted jobs must be replayed;
	// a 5-second job timeout converts the enormous anneal into an
	// explicit failure instead of minutes of work.
	cmd2, base2 := startServed(t, bin,
		"-addr", "127.0.0.1:0", "-journal", jpath, "-workers", "2", "-queue", "16",
		"-job-timeout", "5s")
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd2.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			cmd2.Process.Kill()
		}
	}()

	if got := metricsNum(t, base2, "mfserved_journal_replayed_total"); got != 4 {
		t.Fatalf("journal_replayed = %d, want 4", got)
	}
	deadline = time.Now().Add(2 * time.Minute)
	for {
		done := metricsNum(t, base2, `mfserved_jobs_finished_total{status="done"}`)
		failed := metricsNum(t, base2, `mfserved_jobs_finished_total{status="failed"}`)
		if done+failed > 4 {
			t.Fatalf("more terminal jobs than accepted: done=%d failed=%d — duplicated replay", done, failed)
		}
		if done+failed == 4 {
			// The three fast jobs must succeed; the enormous anneal either
			// finishes or hits the 5s timeout — both are terminal, neither
			// is lost.
			if done < 3 {
				t.Fatalf("jobs finished done=%d failed=%d, want the three fast jobs done", done, failed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed jobs never all finished: done=%d failed=%d", done, failed)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Orderly shutdown, then the journal itself must agree: zero pending.
	cmd2.Process.Signal(syscall.SIGTERM)
	waitDone := make(chan error, 1)
	go func() { waitDone <- cmd2.Wait() }()
	select {
	case <-waitDone:
	case <-time.After(60 * time.Second):
		t.Fatal("second process did not shut down")
	}
	jnl, pending, _, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	jnl.Close()
	if len(pending) != 0 {
		t.Fatalf("accepted jobs lost or unfinished after crash+restart: %+v", pending)
	}
}
