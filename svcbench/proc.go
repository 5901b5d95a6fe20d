package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc.go: the mfserved process under test, observed from outside — its
// readiness log line, /proc CPU and memory counters, the /metrics
// exposition, the Go runtime's MemStats on the debug listener, and the
// journal file — plus the sweep that proves no process outlives a run.

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// serverProc is one running mfserved.
type serverProc struct {
	pid     int
	base    string // http://127.0.0.1:port
	debug   string // http://127.0.0.1:port of the pprof listener
	journal string
	exited  chan struct{} // closed once the process has been reaped
	drained chan struct{} // closed once stderr hits EOF

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports

	stopOnce sync.Once
}

// spawn starts mfserved with its journal at dir/jobs.journal (a fresh
// file), default workers and default log level, listening on an
// ephemeral loopback port, with its pprof listener on another loopback
// port. It returns once the server logs that it is listening; the
// returned instant, taken just before the fork, starts setup.
func spawn(ctx context.Context, bin, dir string) (*serverProc, time.Time, error) {
	jpath := filepath.Join(dir, "jobs.journal")
	if err := os.Remove(jpath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, time.Time{}, err
	}
	debugAddr, err := freePort()
	if err != nil {
		return nil, time.Time{}, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, time.Time{}, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-journal", jpath, "-debug-addr", debugAddr)
	cmd.Stderr = pw
	// The server must not outlive the benchmark, even when the benchmark
	// is killed outright. Linux delivers Pdeathsig when the thread that
	// forked the child exits, not the process, so the fork happens on a
	// thread locked to a goroutine that lives until the child is reaped.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{journal: jpath, debug: "http://" + debugAddr,
		exited: make(chan struct{}), drained: make(chan struct{})}
	started := make(chan error, 1)
	var start time.Time
	go func() {
		// Never unlocked: the thread exits with this goroutine, after
		// the child has been reaped.
		runtime.LockOSThread()
		start = time.Now()
		if err := cmd.Start(); err != nil {
			started <- err
			return
		}
		p.pid = cmd.Process.Pid
		started <- nil
		_ = cmd.Wait() // a SIGTERM exit status is expected
		close(p.exited)
	}()
	err = <-started
	pw.Close() // the child holds its own copy
	if err != nil {
		pr.Close()
		return nil, time.Time{}, fmt.Errorf("starting mfserved: %w", err)
	}
	ready := make(chan string, 1)
	go p.readLog(pr, ready)
	select {
	case addr := <-ready:
		p.base = "http://" + addr
		return p, start, nil
	case <-p.drained:
		err = errors.New("mfserved exited before listening")
	case <-time.After(60 * time.Second):
		err = errors.New("mfserved did not log readiness within 60s")
	case <-ctx.Done():
		err = ctx.Err()
	}
	p.stop()
	return nil, time.Time{}, fmt.Errorf("%w\n%s", err, p.logTail())
}

// freePort picks an unused loopback port for the debug listener, whose
// address mfserved does not log once bound.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// readLog drains the server's stderr (a blocked pipe would stall the
// server), reports the address of the "mfserved listening" line and
// keeps the last lines for diagnostics.
func (p *serverProc) readLog(r io.ReadCloser, ready chan<- string) {
	defer close(p.drained)
	defer r.Close()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	found := false
	for sc.Scan() {
		line := sc.Text()
		if !found && strings.Contains(line, `msg="mfserved listening"`) {
			if addr, ok := logField(line, "addr"); ok {
				found = true
				ready <- addr
			}
		}
		p.mu.Lock()
		if len(p.tail) == 20 {
			p.tail = p.tail[1:]
		}
		p.tail = append(p.tail, line)
		p.mu.Unlock()
	}
}

// logField extracts key=value from a slog text line (unquoted values).
func logField(line, key string) (string, bool) {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return v, true
		}
	}
	return "", false
}

func (p *serverProc) logTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// stop asks the server to drain (SIGTERM), kills it if it has not exited
// after 10 s, and returns once it has been reaped and its stderr closed.
// Calling it again is a no-op.
func (p *serverProc) stop() {
	p.stopOnce.Do(func() {
		_ = syscall.Kill(p.pid, syscall.SIGTERM)
		select {
		case <-p.exited:
		case <-time.After(10 * time.Second):
			_ = syscall.Kill(p.pid, syscall.SIGKILL)
			<-p.exited
		}
		<-p.drained
	})
}

// awaitDebug waits until the pprof listener answers; mfserved binds it
// asynchronously and only logs a failure to bind.
func (p *serverProc) awaitDebug(c *http.Client) error {
	var err error
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if _, err = p.memStats(c); err == nil {
			return nil
		}
	}
	return fmt.Errorf("debug listener %s: %w\n%s", p.debug, err, p.logTail())
}

// cpuTime is the server's user+system CPU so far, from /proc/<pid>/stat.
func (p *serverProc) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// cpuSample is the server's CPU time so far at one instant.
type cpuSample struct {
	At  time.Time
	CPU time.Duration
}

// sampleCPU reads the server's CPU time at from and every cpuSlice after
// it until stop is closed, then once more. The samples bound the slices
// cpu_ms_per_op is measured in.
func (p *serverProc) sampleCPU(from time.Time, stop <-chan struct{}) ([]cpuSample, error) {
	var out []cpuSample
	read := func() error {
		at := time.Now()
		c, err := p.cpuTime()
		out = append(out, cpuSample{at, c})
		return err
	}
	next := from
	timer := time.NewTimer(time.Until(next))
	defer timer.Stop()
	for {
		select {
		case <-stop:
			return out, read()
		case <-timer.C:
			if err := read(); err != nil {
				return out, err
			}
			next = next.Add(cpuSlice)
			timer.Reset(time.Until(next))
		}
	}
}

// peakRSS is the server's VmHWM in MiB.
func (p *serverProc) peakRSS() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// journalLines counts the records in the journal file (one per line;
// the file only grows while the server runs).
func (p *serverProc) journalLines() (int, error) {
	raw, err := os.ReadFile(p.journal)
	if err != nil {
		return 0, err
	}
	return bytes.Count(raw, []byte{'\n'}), nil
}

// memStats are the Go runtime counters of the server process.
type memStats struct {
	TotalAlloc, Mallocs, NumGC float64
}

// memStats reads the server's runtime.MemStats from the text heap
// profile on its debug listener. A counter missing from the profile is
// an error, never a zero.
func (p *serverProc) memStats(c *http.Client) (memStats, error) {
	var m memStats
	resp, err := c.Get(p.debug + "/debug/pprof/heap?debug=1")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET heap profile: %s", resp.Status)
	}
	want := map[string]*float64{"TotalAlloc": &m.TotalAlloc, "Mallocs": &m.Mallocs, "NumGC": &m.NumGC}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if dst := want[name]; ok && dst != nil {
			if *dst, err = strconv.ParseFloat(val, 64); err != nil {
				return m, fmt.Errorf("heap profile %s: %w", name, err)
			}
			delete(want, name)
		}
	}
	if err := sc.Err(); err != nil {
		return m, err
	}
	if len(want) > 0 {
		return m, fmt.Errorf("heap profile lacks %d MemStats counters", len(want))
	}
	return m, nil
}

// hostTicks reads the machine-wide CPU ticks from /proc/stat: steal
// (time the hypervisor ran someone else on this VM's vCPUs) and the total.
func hostTicks() (steal, total int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// promSample is one /metrics scrape: series ("name" or "name{labels}")
// to value. A counter family the server exposes only once used (the
// session families) is absent before then and reads as 0 in a delta.
type promSample map[string]float64

func (p *serverProc) scrape(c *http.Client) (promSample, error) {
	resp, err := c.Get(p.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := promSample{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// The always-present families prove the scrape read a real exposition.
	for _, s := range []string{"mfserved_cache_hits_total", "mfserved_jobs_accepted_total", "mfserved_sa_moves_total"} {
		if _, ok := out[s]; !ok {
			return nil, fmt.Errorf("/metrics lacks %s", s)
		}
	}
	return out, nil
}

// counterDeltas are the /metrics counters the benchmark reports and
// cross-checks against the traced run, by per-layer metric name.
var counterDeltas = []struct{ metric, series string }{
	{"count.cache_hits", "mfserved_cache_hits_total"},
	{"count.cache_misses", "mfserved_cache_misses_total"},
	{"count.jobs_accepted", "mfserved_jobs_accepted_total"},
	{"count.jobs_finished", `mfserved_jobs_finished_total{status="done"}`},
	{"count.jobs_failed", `mfserved_jobs_finished_total{status="failed"}`},
	{"count.sa_moves", "mfserved_sa_moves_total"},
	{"count.sa_accepted", "mfserved_sa_accepted_total"},
	{"count.astar_expanded", "mfserved_astar_expanded_total"},
	{"count.route_tasks", "mfserved_route_tasks_total"},
	{"count.repairs_repaired", `mfserved_session_repairs_total{outcome="repaired"}`},
	{"count.repairs_degraded", `mfserved_session_repairs_total{outcome="degraded"}`},
	{"count.repairs_abandoned", `mfserved_session_repairs_total{outcome="abandoned"}`},
}

func deltas(before, after promSample) map[string]float64 {
	out := make(map[string]float64, len(counterDeltas))
	for _, c := range counterDeltas {
		out[c.metric] = after[c.series] - before[c.series]
	}
	return out
}

// sweep looks for processes a run may have left behind: any process but
// this one whose executable or working directory lies under dir, or whose
// environment points the go command's cache or config into it (a go
// telemetry sidecar forked during the build runs in its own session, so
// only its environment ties it to this build). It kills each one, waits
// until it is gone, and describes it.
func sweep(dir string) []string {
	dir = filepath.Clean(dir)
	under := func(p string) bool { return p == dir || strings.HasPrefix(p, dir+"/") }
	self := os.Getpid()
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return []string{fmt.Sprintf("cannot list /proc: %v", err)}
	}
	var found []string
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid == self {
			continue
		}
		proc := "/proc/" + e.Name()
		exe, _ := os.Readlink(proc + "/exe")
		cwd, _ := os.Readlink(proc + "/cwd")
		env, _ := os.ReadFile(proc + "/environ")
		hit := under(strings.TrimSuffix(exe, " (deleted)")) || under(cwd)
		for _, kv := range bytes.Split(env, []byte{0}) {
			if k, v, ok := strings.Cut(string(kv), "="); ok && (k == "GOCACHE" || k == "XDG_CONFIG_HOME") && under(v) {
				hit = true
			}
		}
		if !hit {
			continue
		}
		cmdline, _ := os.ReadFile(proc + "/cmdline")
		found = append(found, fmt.Sprintf("pid %d (%s) exe %s cwd %s", pid,
			strings.TrimSpace(string(bytes.ReplaceAll(cmdline, []byte{0}, []byte{' '}))), exe, cwd))
		_ = syscall.Kill(pid, syscall.SIGKILL)
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			if _, err := os.Stat(proc); err != nil {
				break
			}
		}
	}
	return found
}
