// Cluster fault smoke: build the real binary, stand up a 3-node ring,
// SIGKILL one node mid-stream, and prove that (a) the survivors keep
// accepting and finishing every request — including ones whose ring
// owner is the dead node — and (b) the victim's journal replays its
// accepted-but-unfinished jobs on restart, so no accepted job is lost
// anywhere in the cluster.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
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

// reservePorts grabs n distinct loopback ports and releases the
// listeners so the nodes can bind them. Ports must be known up front
// because every node's -peers flag lists all of them.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

func waitJobDone(t *testing.T, base, id string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET job %s: %v", id, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var job struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(data, &job); err != nil {
			t.Fatalf("job %s: %v: %s", id, err, data)
		}
		switch job.Status {
		case "done":
			return
		case "failed", "canceled":
			t.Fatalf("job %s %s: %s", id, job.Status, job.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, job.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestClusterSurvivesNodeKill(t *testing.T) {
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

	const n = 3
	addrs := reservePorts(t, n)
	urls := make([]string, n)
	for i, a := range addrs {
		urls[i] = "http://" + a
	}
	peers := strings.Join(urls, ",")
	nodeArgs := func(i int) []string {
		return []string{
			"-addr", addrs[i], "-self", urls[i], "-peers", peers,
			"-journal", filepath.Join(dir, fmt.Sprintf("node%d.journal", i)),
			"-workers", "1", "-queue", "32", "-probe-interval", "100ms",
		}
	}
	cmds := make([]*exec.Cmd, n)
	for i := 0; i < n; i++ {
		cmds[i], _ = startServed(t, bin, nodeArgs(i)...)
	}
	stopped := make([]bool, n)
	stopNode := func(i int) {
		if stopped[i] {
			return
		}
		stopped[i] = true
		cmds[i].Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmds[i].Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			cmds[i].Process.Kill()
			<-done
		}
	}
	defer func() {
		for i := range cmds {
			stopNode(i)
		}
	}()

	// Phase A: the healthy ring handles a spread of requests submitted
	// round-robin; every job must finish wherever it was routed.
	body := func(seed int) string {
		return fmt.Sprintf(`{"bench":"PCR","options":{"imax":60,"seed":%d}}`, seed)
	}
	for i := 0; i < 6; i++ {
		base := urls[i%n]
		waitJobDone(t, base, submit(t, base, body(100+i)), 30*time.Second)
	}

	// Phase B: load node 0 with fresh work and kill it before the work can
	// finish — accepted jobs die with it, pending in its journal. The
	// anneals are sized to run for hundreds of milliseconds each so the
	// SIGKILL always lands mid-work.
	killedIDs := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		killedIDs = append(killedIDs,
			submit(t, urls[0], fmt.Sprintf(`{"bench":"PCR","options":{"imax":5000,"seed":%d}}`, 200+i)))
	}
	if err := cmds[0].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmds[0].Wait()
	stopped[0] = true

	// Survivors must keep finishing everything, including requests whose
	// ring owner is the corpse: the prober marks it down, ownership
	// forwarding is bypassed, and the local fallback synthesizes instead.
	for i := 0; i < 9; i++ {
		base := urls[1+i%2]
		waitJobDone(t, base, submit(t, base, body(300+i)), 60*time.Second)
	}

	// The victim's journal must still hold its accepted jobs. (Peek reads
	// without compacting, so the restart below replays the same records.)
	jpath := filepath.Join(dir, "node0.journal")
	pending, _, err := journal.Peek(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) == 0 {
		t.Fatalf("node 0 died with %d accepted jobs but its journal has no pending records", len(killedIDs))
	}

	// Restart the victim on its old address and journal: the pending jobs
	// replay, and once they finish an orderly shutdown leaves the journal
	// empty — nothing accepted was lost.
	cmds[0], _ = startServed(t, bin, nodeArgs(0)...)
	stopped[0] = false
	base0 := urls[0]
	if got := metricsNum(t, base0, "mfserved_journal_replayed_total"); got != int64(len(pending)) {
		t.Fatalf("journal_replayed = %d, want %d", got, len(pending))
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		done := metricsNum(t, base0, `mfserved_jobs_finished_total{status="done"}`)
		failed := metricsNum(t, base0, `mfserved_jobs_finished_total{status="failed"}`)
		if done+failed >= int64(len(pending)) {
			if failed > 0 {
				t.Fatalf("replayed jobs failed: done=%d failed=%d", done, failed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed jobs never finished: done=%d failed=%d want %d", done, failed, len(pending))
		}
		time.Sleep(25 * time.Millisecond)
	}
	stopNode(0)
	left, _, err := journal.Peek(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("accepted jobs lost after kill+restart: %d pending", len(left))
	}
}
