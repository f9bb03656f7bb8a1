package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sr3"
)

// harness owns the cluster of one round: node1 hosted in the perfbench
// process (the seed, with gen and sink) and the benchnode daemons the
// Playground launches. Every exit path of perfbench goes through stop
// or emergency, so no node outlives a run.
type harness struct {
	mu    sync.Mutex
	pg    *sr3.Playground
	node1 *sr3.Node
	log   *os.File
}

// start launches the cluster: node1 in this process on the Playground's
// reserved seed identity, then every other node as a daemon, and waits
// until all members are alive and every /healthz reports ready.
func (h *harness) start(cfg sr3.PlaygroundConfig) error {
	pg, err := sr3.NewPlayground(cfg)
	if err != nil {
		return err
	}
	if err := moveBelowEphemeral(pg); err != nil {
		return err
	}
	seed := pg.Seed()
	logf, err := os.OpenFile(seed.LogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.pg, h.log = pg, logf
	h.mu.Unlock()
	node1, err := sr3.StartNode(sr3.NodeConfig{
		Name:           seed.Name,
		Listen:         seed.Addr,
		HTTPListen:     seed.HTTP,
		TopoFile:       cfg.TopoFile,
		Heartbeat:      cfg.Heartbeat,
		DeadAfter:      cfg.DeadAfter,
		RepairInterval: cfg.Repair,
		LogWriter:      logf,
	})
	if err != nil {
		return fmt.Errorf("start %s: %w", seed.Name, err)
	}
	h.mu.Lock()
	h.node1 = node1
	h.mu.Unlock()
	for _, name := range pg.Names()[1:] {
		// Restart launches a node that is not running under its reserved
		// identity, joined to the seed.
		if err := pg.Restart(name); err != nil {
			return err
		}
	}
	if err := pg.WaitMembers(cfg.Nodes, 30*time.Second); err != nil {
		return err
	}
	if err := pg.WaitHealthy(30 * time.Second); err != nil {
		return err
	}
	return waitConverged(pg, cfg.Nodes, 30*time.Second)
}

// waitConverged waits until every node's view is the seed's current one
// with all members alive. Load must not start earlier: a relay whose
// view has no live owner for its destination keeps retrying while its
// window fills, and at the seed commit a full window then trims tuples
// that were taken for a send but never written (internal/cluster
// relay.go, take and ExecuteClassed), losing them.
func waitConverged(pg *sr3.Playground, nodes int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, name := range pg.Names() {
		for {
			seed, err1 := pg.Debug(seedName)
			d, err2 := pg.Debug(name)
			alive := 0
			for _, m := range d.Members {
				if m.Alive {
					alive++
				}
			}
			if err1 == nil && err2 == nil && d.Epoch == seed.Epoch && alive == nodes {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s's view did not converge (epoch %d, %d members alive)", name, d.Epoch, alive)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

// moveBelowEphemeral gives every node cluster and HTTP ports below the
// kernel's ephemeral range. The Playground reserves ports by binding :0,
// which hands out ephemeral ports, and releases them until the daemon
// binds; meanwhile the cluster's own outgoing connections (one dial per
// RPC and heartbeat) draw local ports from that same range and can take
// one, so a daemon comes up without its HTTP surface.
func moveBelowEphemeral(pg *sr3.Playground) error {
	lo := 32768
	if raw, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(raw)); len(f) == 2 {
			if n, err := strconv.Atoi(f[0]); err == nil && n > 12000 {
				lo = n
			}
		}
	}
	used := map[int]bool{}
	pick := func() (string, error) {
		for try := 0; try < 1000; try++ {
			port := 10000 + rand.Intn(lo-10000)
			if used[port] {
				continue
			}
			addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				continue
			}
			_ = ln.Close()
			used[port] = true
			return addr, nil
		}
		return "", fmt.Errorf("no free port below %d", lo)
	}
	for _, name := range pg.Names() {
		p := pg.Proc(name)
		var err error
		if p.Addr, err = pick(); err != nil {
			return err
		}
		if p.HTTP, err = pick(); err != nil {
			return err
		}
	}
	return nil
}

// stop kills every daemon, waits for each to exit, then stops node1.
func (h *harness) stop() {
	h.mu.Lock()
	pg, node1, logf := h.pg, h.node1, h.log
	h.pg, h.node1, h.log = nil, nil, nil
	h.mu.Unlock()
	if pg != nil {
		for _, name := range pg.Names()[1:] {
			if pg.Kill(name) == nil {
				_ = pg.WaitExit(name, 10*time.Second)
			}
		}
	}
	if node1 != nil {
		done := make(chan struct{})
		go func() { node1.Stop(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			fmt.Fprintln(os.Stderr, "perfbench: node1 did not stop within 10s")
		}
	}
	if logf != nil {
		_ = logf.Close()
	}
}

// tailLogs writes the end of every node's log to stderr.
func (h *harness) tailLogs() {
	h.mu.Lock()
	pg := h.pg
	h.mu.Unlock()
	if pg == nil {
		return
	}
	for _, name := range pg.Names() {
		fmt.Fprintf(os.Stderr, "---- %s log tail ----\n%s\n", name, pg.TailLog(name, 2048))
	}
}

// emergency is the exit path for a signal, the watchdog or a panic: it
// attaches the node logs, SIGKILLs every child and waits until each has
// ended. node1 dies with the process.
func (h *harness) emergency(reason string) {
	fmt.Fprintf(os.Stderr, "perfbench: aborting: %s\n", reason)
	h.tailLogs()
	killChildren()
}

// killChildren SIGKILLs every child process and waits until none is
// running; it returns the pids it had to kill.
func killChildren() []int {
	var killed []int
	seen := map[int]bool{}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		live := 0
		for _, c := range children() {
			if c.state == 'Z' {
				// Ended: reap it, so no zombie is left behind for an init
				// that might not reap orphans.
				var ws syscall.WaitStatus
				_, _ = syscall.Wait4(c.pid, &ws, syscall.WNOHANG, nil)
				continue
			}
			live++
			_ = syscall.Kill(c.pid, syscall.SIGKILL)
			if !seen[c.pid] {
				seen[c.pid] = true
				killed = append(killed, c.pid)
			}
		}
		if live == 0 {
			return killed
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Fprintln(os.Stderr, "perfbench: children still running after SIGKILL")
	return killed
}
