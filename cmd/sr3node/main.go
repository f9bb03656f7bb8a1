// Command sr3node is the SR3 cluster daemon: one process, one cluster
// member. The first node (started without -seed) loads the YAML
// topology spec and embeds the control plane; every other node joins
// it, receives the spec, and hosts whatever components the control
// plane assigns. Each process runs one ring node and recovery manager:
// state saves scatter shards over the leaf set of peer processes; when
// a node dies, the control plane moves its components to a survivor,
// which rebuilds the state from the ring and replays.
//
// Usage:
//
//	sr3node -name a -listen 127.0.0.1:7101 -http 127.0.0.1:9101 -topo wordcount.yaml
//	sr3node -name b -listen 127.0.0.1:7102 -http 127.0.0.1:9102 -seed 127.0.0.1:7101
//
// Every flag also resolves from an SR3_* environment variable (flag >
// env > default) — see sr3node -h. SIGTERM and SIGINT trigger a clean
// shutdown: leave the cluster, drain cells, close the listener.
package main

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"sr3/internal/cluster"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	cfg, err := cluster.ParseNodeConfig(args, os.Getenv)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sr3node:", err)
		return 2
	}
	node, err := cluster.StartNode(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sr3node:", err)
		return 1
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "sr3node: %v, shutting down\n", s)
	signal.Stop(sig)
	node.Stop()
	return 0
}
