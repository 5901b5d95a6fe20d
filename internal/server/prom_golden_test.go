package server

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata exposition goldens from this run")

// peerLabel matches a cluster peer's URL label, which carries a
// per-run port.
var peerLabel = regexp.MustCompile(`peer="[^"]*"`)

// maskExposition keeps every HELP and TYPE line verbatim and every
// sample's series (name and labels) in order, dropping the value and
// masking peer URLs: what a scrape config or dashboard depends on,
// without the run-to-run numbers.
func maskExposition(body string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			if sp := strings.LastIndexByte(line, ' '); sp >= 0 {
				line = line[:sp]
			}
			line = peerLabel.ReplaceAllString(line, `peer="*"`)
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// postTaggedHit POSTs smallReq tagged with a workload profile and
// requires the 200 of a cache hit.
func postTaggedHit(t *testing.T, base, profile string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/synthesize", strings.NewReader(smallReq))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(WorkloadProfileHeader, profile)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST tagged %q: %d, want a 200 cache hit", profile, resp.StatusCode)
	}
}

// TestPromExpositionGolden pins the whole /metrics exposition, not just
// its family names, in three states: a default node that synthesized,
// served a hit and saw a tagged request; node 0 of a 2-node cluster
// with SLOs; and a node with a repaired chip session. Run with -update
// to rewrite testdata/ after a deliberate exposition change.
func TestPromExpositionGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drive func(t *testing.T) (base string)
	}{
		{"default", func(t *testing.T) string {
			_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8})
			var sub submitResponse
			if code := postJSON(t, ts.URL, "/v1/synthesize", smallReq, &sub); code != http.StatusAccepted {
				t.Fatalf("POST: %d", code)
			}
			if jr := waitTerminal(t, ts.URL, sub.JobID, 60*time.Second); jr.Status != "done" {
				t.Fatalf("job: %s (%s)", jr.Status, jr.Error)
			}
			postTaggedHit(t, ts.URL, "steady")
			return ts.URL
		}},
		{"cluster_slo", func(t *testing.T) string {
			slo, err := obs.ParseSLO("p50=1h,p99=1ns")
			if err != nil {
				t.Fatal(err)
			}
			base := startCluster(t, 2, func(i int, cfg *Config) { cfg.SLO = slo })[0].url
			var sub submitResponse
			if code := postJSON(t, base, "/v1/synthesize", smallReq, &sub); code != http.StatusAccepted {
				t.Fatalf("POST: %d", code)
			}
			if jr := waitTerminal(t, base, sub.JobID, 60*time.Second); jr.Status != "done" {
				t.Fatalf("job: %s (%s)", jr.Status, jr.Error)
			}
			return base
		}},
		{"session", func(t *testing.T) string {
			_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})
			cell, at := sessionSuffixCell(t)
			var sr sessionResponse
			if code := postJSON(t, ts.URL, "/v1/sessions", sessionBody, &sr); code != http.StatusCreated {
				t.Fatalf("create: %d", code)
			}
			fr := fmt.Sprintf(`{"at":%d,"cells":[{"x":%d,"y":%d}]}`, at, cell.X, cell.Y)
			if code := postJSON(t, ts.URL, sr.Faults, fr, nil); code != http.StatusOK {
				t.Fatalf("fault: %d", code)
			}
			return ts.URL
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got := maskExposition(getText(t, tc.drive(t), "/metrics"))
			path := filepath.Join("testdata", "metrics_"+tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Split(string(data), "\n")
			lines := strings.Split(got, "\n")
			for i := 0; i < len(want) || i < len(lines); i++ {
				var w, g string
				if i < len(want) {
					w = want[i]
				}
				if i < len(lines) {
					g = lines[i]
				}
				if w != g {
					t.Fatalf("%s line %d:\n got: %q\nwant: %q\n(run with -update after a deliberate exposition change)", path, i+1, g, w)
				}
			}
		})
	}
}
