package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cluster is a set of real mfserved processes serving as one ring.
type cluster struct {
	urls  []string
	nodes []*node
}

type node struct {
	proc   *os.Process
	exited chan struct{} // closed once the process has been reaped
}

// startCluster starts n mfserved nodes on loopback ports as one
// consistent-hash ring, each with one synthesis worker, GOMAXPROCS=1 (so
// n nodes can use n cores) and its journal under dir, and returns once
// every node answers /healthz.
func startCluster(ctx context.Context, bin, dir string, n, queueCap int) (*cluster, error) {
	c := &cluster{}
	addrs := make([]string, n)
	for i := range addrs {
		// The port is free again when its node binds it. Another process
		// could take it in between, which a local benchmark tolerates.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		c.urls = append(c.urls, "http://"+addrs[i])
		ln.Close()
	}
	for i, addr := range addrs {
		nd, err := startNode(bin,
			"-addr", addr,
			"-self", c.urls[i],
			"-peers", strings.Join(c.urls, ","),
			"-workers", "1",
			"-queue", strconv.Itoa(queueCap),
			"-journal", filepath.Join(dir, fmt.Sprintf("node%d.journal", i)),
			"-probe-interval", "200ms",
			"-log-level", "warn",
		)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.nodes = append(c.nodes, nd)
	}
	for _, u := range c.urls {
		if err := waitHealthy(ctx, u); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// startNode starts one mfserved. Linux sends a child its parent-death
// signal when the thread that forked it exits, not the process, so the
// fork runs on a goroutine that holds its OS thread until the child is
// reaped: a killed mfload takes its nodes with it.
func startNode(bin string, args ...string) (*node, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = dieWithParent()
	nd := &node{exited: make(chan struct{})}
	started := make(chan error, 1)
	go func() {
		// Never unlocked: the thread exits with this goroutine, after
		// the child has been reaped.
		runtime.LockOSThread()
		if err := cmd.Start(); err != nil {
			started <- err
			return
		}
		nd.proc = cmd.Process
		started <- nil
		_ = cmd.Wait() // a SIGTERM exit status is expected
		close(nd.exited)
	}()
	if err := <-started; err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	return nd, nil
}

// stop asks every node to drain (SIGTERM), kills any still running
// after 15 s, and returns once all have been reaped.
func (c *cluster) stop() {
	for _, nd := range c.nodes {
		_ = nd.proc.Signal(syscall.SIGTERM)
	}
	for _, nd := range c.nodes {
		select {
		case <-nd.exited:
		case <-time.After(15 * time.Second):
			_ = nd.proc.Kill()
			<-nd.exited
		}
	}
}

// waitHealthy polls a node's /healthz until it answers, for up to 15 s.
func waitHealthy(ctx context.Context, base string) error {
	ctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	for {
		if _, err := get(ctx, base+"/healthz"); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("node %s never became healthy: %w", base, ctx.Err())
		case <-time.After(25 * time.Millisecond):
		}
	}
}
