// Session crash-recovery smoke: build the real binary, open a chip
// session, repair a fault into it, SIGKILL the process while the
// session's journal records are still pending (session records only go
// terminal at close — a kill at any point between journal append and
// close is the mid-repair crash shape), restart on the same journal,
// and prove the replayed session state is byte-identical to the state
// the dying process last acknowledged.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/assay"
	"repro/internal/benchdata"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/route"
	"repro/internal/schedule"
	"repro/internal/unit"
)

// sessionSnap is the subset of the session snapshot the test compares
// across the crash.
type sessionSnap struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Cut         int    `json:"cut"`
	Makespan    int    `json:"makespan"`
	CellsLost   int    `json:"cells_lost"`
	Fingerprint string `json:"fingerprint"`
	Repairs     []struct {
		Outcome     string `json:"outcome"`
		Rung        string `json:"rung"`
		Fingerprint string `json:"fingerprint"`
	} `json:"repairs"`
}

// crashSuffixCell mirrors the server's deterministic synthesis of the
// session benchmark and picks a dead-cell candidate on a transport that
// has not executed at mid-assay — the repair ladder's L1 case.
func crashSuffixCell(t *testing.T) (route.Cell, unit.Time) {
	t.Helper()
	bm, err := benchdata.ByName("Synthetic3")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Place.Imax = 60
	sol, err := core.Synthesize(bm.Graph, bm.Alloc, opts)
	if err != nil {
		t.Fatal(err)
	}
	at := sol.Schedule.Makespan / 2
	executed := schedule.Executed(sol.Schedule, at)
	consumer := make(map[int]assay.OpID)
	for _, tr := range sol.Schedule.Transports {
		consumer[tr.ID] = tr.Consumer
	}
	for _, rt := range sol.Routing.Routes {
		if !executed[consumer[rt.Task.ID]] && len(rt.Path) >= 3 {
			return rt.Path[len(rt.Path)/2], at
		}
	}
	t.Skip("no suffix transport with an interior cell at this cut")
	return route.Cell{}, 0
}

func getSessionSnap(t *testing.T, base, id string) (sessionSnap, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap sessionSnap
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatalf("decoding snapshot: %v: %s", err, data)
		}
	}
	return snap, resp.StatusCode
}

func TestSessionCrashRecoveryReplaysLosslessly(t *testing.T) {
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
	cell, at := crashSuffixCell(t)

	// Process 1: open a session, repair one dead cell into it, and die
	// by SIGKILL with the create and repair records still pending.
	cmd1, base1 := startServed(t, bin,
		"-addr", "127.0.0.1:0", "-journal", jpath, "-workers", "1", "-queue", "16")
	body := `{"bench":"Synthetic3","options":{"imax":60}}`
	resp, err := http.Post(base1+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d: %s", resp.StatusCode, data)
	}
	var sr struct {
		ID     string `json:"id"`
		Faults string `json:"faults"`
	}
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	fr := fmt.Sprintf(`{"at":%d,"cells":[{"x":%d,"y":%d}]}`, at, cell.X, cell.Y)
	resp, err = http.Post(base1+sr.Faults, "application/json", strings.NewReader(fr))
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fault: %d: %s", resp.StatusCode, data)
	}
	want, code := getSessionSnap(t, base1, sr.ID)
	if code != http.StatusOK || want.State != "active" || len(want.Repairs) != 1 {
		t.Fatalf("pre-kill snapshot: %d %+v", code, want)
	}
	if err := cmd1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd1.Wait()

	// Process 2: same journal. The session must come back live with
	// byte-identical state — same repaired-solution fingerprint, same
	// cut, same loss accounting, same repair log.
	cmd2, base2 := startServed(t, bin,
		"-addr", "127.0.0.1:0", "-journal", jpath, "-workers", "1", "-queue", "16")
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

	if got := metricsNum(t, base2, "mfserved_journal_replayed_total"); got < 2 {
		t.Fatalf("journal_replayed = %d, want >= 2 (session create + fault report)", got)
	}
	got, code := getSessionSnap(t, base2, sr.ID)
	if code != http.StatusOK {
		t.Fatalf("session %s not restored: %d", sr.ID, code)
	}
	if got.Fingerprint != want.Fingerprint {
		t.Errorf("replayed fingerprint %s != pre-kill %s", got.Fingerprint, want.Fingerprint)
	}
	if got.State != want.State || got.Cut != want.Cut ||
		got.Makespan != want.Makespan || got.CellsLost != want.CellsLost {
		t.Errorf("replayed state %+v != pre-kill %+v", got, want)
	}
	if len(got.Repairs) != 1 || got.Repairs[0] != want.Repairs[0] {
		t.Errorf("replayed repair log %+v != pre-kill %+v", got.Repairs, want.Repairs)
	}

	// The replayed session is live, not a husk: close it over the API,
	// shut down cleanly, and the journal must drain to zero pending.
	resp, err = http.Post(base2+"/v1/sessions/"+sr.ID+"/close", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close after replay: %d", resp.StatusCode)
	}
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
		t.Fatalf("session records lost or unfinished after crash+restart: %+v", pending)
	}
}
