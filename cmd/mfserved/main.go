// Command mfserved runs the synthesis service: an HTTP API in front of
// the paper's deterministic flow with a bounded job queue, a worker pool
// and a content-addressed result cache.
//
// Usage:
//
//	mfserved                          # serve on :8080
//	mfserved -addr :9000 -workers 4   # custom listener and pool size
//	mfserved -log-level debug         # verbose structured logs
//	mfserved -debug-addr :6060        # pprof on a separate listener
//	mfserved -journal jobs.journal    # crash-safe job journal (replay on start)
//	mfserved -self http://10.0.0.1:8080 -peers http://10.0.0.1:8080,http://10.0.0.2:8080
//	                                  # cluster mode: consistent-hash routing + cache peering
//	mfserved -version                 # print build info, exit
//
// API summary (see README "Service" for a walkthrough):
//
//	POST /v1/synthesize         submit a request → 202 job, 200 cache hit,
//	                            429 when the queue is full
//	POST /v1/synthesize/batch   submit up to 256 requests at once
//	GET  /v1/jobs/{id}          job status, progress and metrics
//	GET  /v1/jobs/{id}/solution the solution document
//	GET  /v1/jobs/{id}/trace    the job's merged cross-node trace
//	POST /v1/jobs/{id}/cancel   cancel a queued or running job
//	POST /v1/sessions           open a chip session (README "Online re-synthesis")
//	GET  /healthz               liveness
//	GET  /metrics               Prometheus text format, the only metrics view
//
// The debug listener (-debug-addr) serves net/http/pprof on its own mux,
// so profiling endpoints are never exposed on the API address. Load,
// chaos and multi-node scaling runs against this server are mfload's
// job (cmd/mfload).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "synthesis worker count (default: CPU count)")
		queueCap  = flag.Int("queue", 64, "bounded job-queue capacity (beyond it: HTTP 429)")
		cacheMB   = flag.Int64("cache-mb", 256, "result-cache bound in MiB")
		jobTO     = flag.Duration("job-timeout", 2*time.Minute, "per-job synthesis deadline (<0 disables)")
		retain    = flag.Int("retain", 4096, "finished jobs kept pollable, and closed or abandoned sessions kept readable")
		jrnlPath  = flag.String("journal", "", "crash-safe job journal path; pending jobs from a previous process are resubmitted on start (empty disables)")
		sloSpec   = flag.String("slo", "", `latency objectives like "p99=250ms,p95=100ms"; enables the SLO metric families (empty disables)`)
		flightN   = flag.Int("flight", 256, "flight-recorder ring size: recent completed requests kept for /debug/requests and the SIGQUIT dump")
		logLevel  = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this address (separate mux; empty disables)")
		version   = flag.Bool("version", false, "print version and exit")

		// Cluster mode (see DESIGN.md "Cluster").
		peers     = flag.String("peers", "", "comma-separated base URLs of every cluster node, including this one (enables cluster mode)")
		peersFile = flag.String("peers-file", "", "discovery file with one peer URL per line, re-read on change (enables cluster mode)")
		selfURL   = flag.String("self", "", "this node's base URL exactly as it appears in the peer list (required in cluster mode)")
		vnodes    = flag.Int("vnodes", 0, "virtual nodes per peer on the consistent-hash ring (default 64)")
		probeIv   = flag.Duration("probe-interval", 500*time.Millisecond, "cluster health-probe cadence")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version("mfserved"))
		return
	}

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "mfserved: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))

	cfg := server.Config{
		Workers:     *workers,
		QueueCap:    *queueCap,
		CacheBytes:  *cacheMB << 20,
		JobTimeout:  *jobTO,
		Retain:      *retain,
		Logger:      logger,
		JournalPath: *jrnlPath,
	}
	cfg.FlightRecords = *flightN
	if *sloSpec != "" {
		slo, err := obs.ParseSLO(*sloSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mfserved: %v\n", err)
			os.Exit(2)
		}
		cfg.SLO = slo
	}

	var cl *cluster.Cluster
	if *peers != "" || *peersFile != "" {
		if *selfURL == "" {
			fmt.Fprintln(os.Stderr, "mfserved: cluster mode needs -self (this node's URL in the peer list)")
			os.Exit(2)
		}
		var peerList []string
		if *peers != "" {
			peerList = strings.Split(*peers, ",")
		}
		var err error
		cl, err = cluster.New(cluster.Config{
			Self:          *selfURL,
			Peers:         peerList,
			PeersFile:     *peersFile,
			VNodes:        *vnodes,
			ProbeInterval: *probeIv,
			Logger:        logger,
		})
		if err != nil {
			logger.Error("cluster startup failed", "err", err)
			os.Exit(1)
		}
		defer cl.Close()
		cfg.Cluster = cl
	}

	s, err := server.New(cfg)
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: s.Handler()}

	if *debugAddr != "" {
		// pprof lives on its own mux and listener: the profiling surface
		// is opt-in and never reachable through the API address.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil && err != http.ErrServerClosed {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
	}

	// SIGQUIT dumps the flight recorder — the recent-request postmortem —
	// and keeps serving: in-flight jobs are untouched.
	go func() {
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		for range quit {
			path := flightDumpPath(*jrnlPath)
			if err := dumpFlightTo(s, path); err != nil {
				logger.Error("flight dump failed", "path", path, "err", err)
				continue
			}
			logger.Info("flight recorder dumped", "path", path)
		}
	}()

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down, draining jobs")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Error("http shutdown", "err", err)
		}
		if err := s.Shutdown(ctx); err != nil {
			logger.Error("job drain", "err", err)
		}
	}()

	// Bind before logging so "addr" is the resolved address: with
	// ":0"-style flags the chosen port is otherwise unknowable to
	// supervisors (and to the crash-recovery tests) watching the log.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	logger.Info("mfserved listening",
		"addr", ln.Addr().String(),
		"workers", effectiveWorkers(*workers),
		"queue_capacity", *queueCap,
		"cache_mb", *cacheMB,
		"job_timeout", (*jobTO).String(),
		"retain", *retain,
		"journal", *jrnlPath,
		"version", buildinfo.Version("mfserved"),
	)
	if cl != nil {
		logger.Info("cluster mode", "self", cl.Self(), "members", len(cl.Members()), "max_hops", cl.MaxHops())
	}
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		logger.Error("serve failed", "addr", ln.Addr().String(), "err", err)
		os.Exit(1)
	}
	<-done
}

func effectiveWorkers(w int) int {
	if w <= 0 {
		return runtime.NumCPU()
	}
	return w
}

// flightDumpPath places the SIGQUIT dump next to the journal (the
// operator's durable directory) or, without one, in the working dir.
func flightDumpPath(journalPath string) string {
	dir := "."
	if journalPath != "" {
		dir = filepath.Dir(journalPath)
	}
	return filepath.Join(dir, fmt.Sprintf("mfserved-flight-%d.json", os.Getpid()))
}

// dumpFlightTo writes the flight recorder snapshot to path atomically
// enough for a postmortem: full rewrite, rename-free (the file is keyed
// by PID, so successive dumps just supersede each other).
func dumpFlightTo(s *server.Server, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.DumpFlight(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
