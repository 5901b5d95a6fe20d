// Batch crash-recovery smoke: the tentpole batch endpoint journals each
// unique member like a single submit, so a SIGKILL mid-queue must lose
// none of them — the restart replays every accepted member exactly once
// as a standalone job.
package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/journal"
)

func TestBatchCrashRecoveryReplaysMembers(t *testing.T) {
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

	// Process 1: one worker pinned on an enormous anneal, then one batch
	// of four members — three unique, one duplicate — stuck behind it.
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

	members := []string{
		`{"bench":"PCR","options":{"imax":60,"seed":11}}`,
		`{"bench":"PCR","options":{"imax":60,"seed":12}}`,
		`{"bench":"PCR","options":{"imax":60,"seed":11}}`, // duplicate of member 0
		`{"bench":"PCR","options":{"imax":60,"seed":13}}`,
	}
	resp, err := http.Post(base1+"/v1/synthesize/batch", "application/json",
		strings.NewReader(`{"requests":[`+strings.Join(members, ",")+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch: %d: %s", resp.StatusCode, data)
	}
	var br struct {
		Unique  int `json:"unique"`
		Deduped int `json:"deduped"`
	}
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if br.Unique != 3 || br.Deduped != 1 {
		t.Fatalf("batch accounting: %+v", br)
	}
	if err := cmd1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd1.Wait()

	// Process 2: same journal. The pinned single plus the three unique
	// batch members — four accepted jobs — must replay; the duplicate
	// must NOT (it never had its own journal entry).
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
		t.Fatalf("journal_replayed = %d, want 4 (3 unique members + pinned job, duplicates excluded)", got)
	}
	deadline = time.Now().Add(2 * time.Minute)
	for {
		done := metricsNum(t, base2, `mfserved_jobs_finished_total{status="done"}`)
		failed := metricsNum(t, base2, `mfserved_jobs_finished_total{status="failed"}`)
		if done+failed > 4 {
			t.Fatalf("more terminal jobs than accepted: done=%d failed=%d — duplicated replay", done, failed)
		}
		if done+failed == 4 {
			if done < 3 {
				t.Fatalf("jobs finished done=%d failed=%d, want the three members done", done, failed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed members never finished: done=%d failed=%d", done, failed)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Each member must have replayed into a real cached solution: a
	// fresh batch of the same members is now answered entirely from the
	// cache without scheduling anything.
	resp2, err := http.Post(base2+"/v1/synthesize/batch", "application/json",
		strings.NewReader(`{"requests":[`+strings.Join(members, ",")+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	data2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm batch after replay: %d: %s", resp2.StatusCode, data2)
	}
	var warm struct {
		Members []struct {
			Status string `json:"status"`
			Cached bool   `json:"cached"`
		} `json:"members"`
	}
	if err := json.Unmarshal(data2, &warm); err != nil {
		t.Fatal(err)
	}
	for i, m := range warm.Members {
		if m.Status != "done" || !m.Cached {
			t.Fatalf("member %d not cache-served after replay: %+v", i, m)
		}
	}

	// Orderly shutdown, then the journal must agree: zero pending.
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
		t.Fatalf("batch members lost after crash+restart: %+v", pending)
	}
}
