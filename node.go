// Multi-process deployment surface: the sr3node daemon (cmd/sr3node)
// and its embedding API. Everything the framework does in one process —
// stream runtime, state scatter on save, detect/recover on failure —
// the cluster layer does across real processes: a seed node embeds the
// control plane, peers join over TCP, cross-process edges speak the
// batch tuple codec, and a dead node's components are adopted by a
// survivor that rebuilds the scattered state from the ring. The seed federates
// every member's metrics, stitches cross-process recovery traces, and
// merges distributed post-mortems. See internal/cluster and DESIGN.md
// §14–15.
package sr3

import "sr3/internal/cluster"

// NodeConfig configures one sr3node daemon (flags > SR3_* environment >
// defaults; see ParseNodeConfig).
type NodeConfig = cluster.NodeConfig

// Node is a running cluster daemon — the process-level counterpart of
// an in-process Framework node.
type Node = cluster.Node

// TopologySpec is the declarative YAML topology a cluster runs: the
// components, their wiring, and the initial component-to-node
// assignment.
type TopologySpec = cluster.Spec

// NodeDebug is the /debug/sr3 snapshot a daemon serves.
type NodeDebug = cluster.NodeDebug

// ClusterDebug is the seed's /debug/sr3/cluster snapshot: view epoch,
// members, assignment, and every member's NodeDebug, as federated by
// the metrics-pull loop (Node.ClusterDebugSnapshot; DESIGN.md §15).
type ClusterDebug = cluster.ClusterDebug

// Playground launches a local multi-process cluster (one sr3node
// process per member) — the dev and e2e harness.
type Playground = cluster.Playground

// PlaygroundConfig configures a Playground.
type PlaygroundConfig = cluster.PlaygroundConfig

// StartNode starts a daemon in this process: joins (or forms) the
// cluster, recovers and hosts its assigned components, and serves the
// cluster and HTTP listeners until Stop.
func StartNode(cfg NodeConfig) (*Node, error) { return cluster.StartNode(cfg) }

// ParseNodeConfig resolves a daemon config from command-line arguments
// with SR3_* environment fallbacks (pass os.Getenv; tests pass a stub).
func ParseNodeConfig(args []string, getenv func(string) string) (NodeConfig, error) {
	return cluster.ParseNodeConfig(args, getenv)
}

// ParseTopologySpec parses and validates a YAML topology spec.
func ParseTopologySpec(data []byte) (*TopologySpec, error) {
	return cluster.ParseSpec(data)
}

// NewPlayground prepares a local cluster of sr3node processes; Start
// launches them.
func NewPlayground(cfg PlaygroundConfig) (*Playground, error) {
	return cluster.NewPlayground(cfg)
}

// ClusterComponent is one component declaration in a TopologySpec.
type ClusterComponent = cluster.Component

// RegisterSpout adds a spout kind to the component registry every
// daemon builds cells from (call before StartNode).
func RegisterSpout(kind string, build func(c ClusterComponent, stop <-chan struct{}) (Spout, error)) {
	cluster.RegisterSpout(kind, build)
}

// RegisterBolt adds a bolt kind to the component registry (call before
// StartNode).
func RegisterBolt(kind string, stateful bool, maxParallel int, build func(c ClusterComponent) (Bolt, error)) {
	cluster.RegisterBolt(kind, stateful, maxParallel, build)
}
