// Command benchnode is the node daemon perfbench launches: the
// sr3node daemon (same flags, same SR3_* environment, the unmodified
// sr3.StartNode) plus a parent watch. perfbench hosts node1 in its own
// process; if perfbench dies without stopping its children, every
// benchnode notices that it was re-parented and exits, so no node
// outlives a benchmark run.
package main

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sr3"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	parent := os.Getppid()
	cfg, err := sr3.ParseNodeConfig(args, os.Getenv)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchnode:", err)
		return 2
	}
	node, err := sr3.StartNode(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchnode:", err)
		return 1
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "benchnode: %v, shutting down\n", s)
			signal.Stop(sig)
			node.Stop()
			return 0
		case <-tick.C:
			if os.Getppid() != parent {
				// perfbench is gone; its seed went with it, so a clean
				// leave cannot complete. Exit at once.
				fmt.Fprintln(os.Stderr, "benchnode: parent exited, stopping")
				return 1
			}
		}
	}
}
