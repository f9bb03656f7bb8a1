package cluster

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"sr3/internal/leakcheck"
	"sr3/internal/obs"
	"sr3/internal/recovery"
	"sr3/internal/simnet"
	"sr3/internal/state"
)

// testSpec builds a source -> counter -> sink pipeline with the three
// components pinned to the given nodes.
func testSpec(srcNode, cntNode, sinkNode string, count, keys, intervalUS, saveEvery int64) *Spec {
	s := &Spec{
		Name:      "wc",
		SaveEvery: int(saveEvery),
		Components: []Component{
			{
				ID: "source", Kind: "spout.seq", Node: srcNode, Parallel: 1,
				Params: map[string]int64{"count": count, "keys": keys, "interval_us": intervalUS},
			},
			{
				ID: "count", Kind: "bolt.counter", Node: cntNode, Parallel: 1,
				Params: map[string]int64{},
				Inputs: []Input{{From: "source", Grouping: "fields", Field: 0}},
			},
			{
				ID: "sink", Kind: "bolt.sink", Node: sinkNode, Parallel: 1,
				Params: map[string]int64{},
				Inputs: []Input{{From: "count", Grouping: "global"}},
			},
		},
	}
	if err := s.normalize(); err != nil {
		panic(err)
	}
	return s
}

func startTestNode(t *testing.T, name, seedAddr string, spec *Spec) *Node {
	t.Helper()
	return startTestNodeWith(t, testConfig(name, seedAddr, spec))
}

func testConfig(name, seedAddr string, spec *Spec) NodeConfig {
	return NodeConfig{
		Name:           name,
		Listen:         "127.0.0.1:0",
		Seed:           seedAddr,
		Spec:           spec,
		Heartbeat:      20 * time.Millisecond,
		DeadAfter:      200 * time.Millisecond,
		RepairInterval: 100 * time.Millisecond,
		JoinTimeout:    5 * time.Second,
		LogWriter:      io.Discard,
	}
}

func startTestNodeWith(t *testing.T, cfg NodeConfig) *Node {
	t.Helper()
	n, err := StartNode(cfg)
	if err != nil {
		t.Fatalf("StartNode(%s): %v", cfg.Name, err)
	}
	return n
}

// sinkOn digs the sink summary out of a node's debug snapshot.
func sinkOn(n *Node) (SinkSummary, bool) {
	for _, c := range n.Debug().Cells {
		if s, ok := c.Sinks["sink"]; ok {
			return s, true
		}
	}
	return SinkSummary{}, false
}

// waitSink polls until the sink on n has seen total tuples exactly-once.
func waitSink(t *testing.T, n *Node, total int64, timeout time.Duration) SinkSummary {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last SinkSummary
	for time.Now().Before(deadline) {
		if s, ok := sinkOn(n); ok {
			last = s
			var sum int64
			for _, m := range s.MaxByKey {
				sum += m
			}
			if sum == total && int64(s.Pairs) == total && s.ExactlyOnce {
				return s
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("sink never converged to %d exactly-once tuples; last %+v", total, last)
	return last
}

// TestSingleNodePipeline runs the whole topology in one daemon: the
// degenerate cluster, no relays involved.
func TestSingleNodePipeline(t *testing.T) {
	spec := testSpec("n1", "n1", "n1", 2000, 8, 0, 100)
	seed := startTestNode(t, "n1", "", spec)
	defer seed.Stop()
	s := waitSink(t, seed, 2000, 10*time.Second)
	if len(s.MaxByKey) != 8 {
		t.Fatalf("keys = %d, want 8", len(s.MaxByKey))
	}
	for k, m := range s.MaxByKey {
		if m != 250 {
			t.Fatalf("key %s max = %d, want 250", k, m)
		}
	}
}

// TestCrossProcessEdges splits the pipeline across three in-process
// nodes, so every edge crosses a real TCP tuple stream.
func TestCrossProcessEdges(t *testing.T) {
	spec := testSpec("n1", "n2", "n3", 2000, 8, 0, 100)
	seed := startTestNode(t, "n1", "", spec)
	defer seed.Stop()
	n2 := startTestNode(t, "n2", seed.Addr(), spec)
	defer n2.Stop()
	n3 := startTestNode(t, "n3", seed.Addr(), spec)
	defer n3.Stop()

	waitSink(t, n3, 2000, 15*time.Second)

	// The debug surface sees the full membership from any node.
	d := n2.Debug()
	if len(d.Members) != 3 {
		t.Fatalf("members = %d, want 3", len(d.Members))
	}
	if d.Assign["count"] != "n2" {
		t.Fatalf("assign[count] = %q", d.Assign["count"])
	}
}

// crashNode simulates kill -9 from the cluster's point of view: the node
// stops heartbeating and serving without a leave, so the control plane
// must detect the death. (The process-level variant lives in
// internal/cluster/e2etest.)
func crashNode(n *Node) {
	if n.control == nil {
		close(n.hbStop)
		<-n.hbDone
	}
	close(n.rpStop)
	<-n.rpDone
	n.mu.Lock()
	cells := append([]*cell(nil), n.cells...)
	n.mu.Unlock()
	for _, c := range cells {
		c.ready.Store(false)
		for _, r := range c.relays {
			r.close()
		}
	}
	n.shutdownTransport()
	for _, c := range cells {
		c.stop()
	}
	if n.httpSrv != nil {
		_ = n.httpSrv.Close()
	}
}

// TestAdoptionAfterCrash kills the node hosting the stateful counter
// mid-stream, once per recovery mechanism, and asserts the control plane
// detects the death, a survivor adopts the component, recovers the
// scattered state from the ring, and the sink ends exactly-once. The
// adopter's trace must show the recovery fetching only from survivors.
func TestAdoptionAfterCrash(t *testing.T) {
	for _, mech := range []recovery.Mechanism{recovery.Star, recovery.Line, recovery.Tree} {
		mech := mech
		t.Run(mech.String(), func(t *testing.T) {
			const total = 4000
			// ~200us between tuples: the stream is still in flight when
			// the counter's host dies. Four nodes put the counter's
			// replicas on three peers, so every mechanism fetches remotely.
			spec := testSpec("n1", "n2", "n1", total, 8, 200, 25)
			seed := startTestNode(t, "n1", "", spec)
			defer seed.Stop()
			n2 := startTestNode(t, "n2", seed.Addr(), spec)
			nodes := map[string]*Node{"n1": seed}
			for _, name := range []string{"n3", "n4"} {
				n := startTestNode(t, name, seed.Addr(), spec)
				defer n.Stop()
				nodes[name] = n
			}
			for _, n := range nodes {
				n.forcedMech.Store(&mech)
			}

			// Let the pipeline run long enough for saves to scatter.
			time.Sleep(250 * time.Millisecond)
			crashNode(n2)

			s := waitSink(t, seed, total, 20*time.Second)
			if !s.ExactlyOnce {
				t.Fatalf("sink not exactly-once: %+v", s)
			}

			// The counter must have moved off the dead node.
			d := seed.Debug()
			adopter := nodes[d.Assign["count"]]
			if adopter == nil {
				t.Fatalf("count not re-homed on a survivor: %v", d.Assign)
			}
			for _, m := range d.Members {
				if m.Name == "n2" && m.Alive {
					t.Fatalf("crashed node still alive in view: %+v", d.Members)
				}
			}

			crashed := ringID("n2").Short()
			fetches := 0
			spans := adopter.spans.Spans()
			for _, rec := range spans {
				if rec.Phase != obs.PhaseRecover {
					continue
				}
				for _, f := range spans {
					if f.Parent != rec.Span || f.Phase != obs.PhaseFetch {
						continue
					}
					fetches++
					for _, a := range f.Attrs {
						if a.Key == "peer" && a.Str == crashed {
							t.Fatalf("%s recovery fetched from the crashed node: %+v", mech, f)
						}
					}
				}
			}
			if fetches == 0 {
				t.Fatalf("adopter %s recorded no recover -> fetch spans", adopter.Name())
			}
		})
	}
}

// TestSaveNeedsOffNodeCopy is the regression test for acknowledging a
// save with every copy on the saver: in a two-node cluster whose peer
// crashed but is still in the view, Save must fail and place nothing on
// the saver; once the seed declares the peer dead, it fails typed and is
// counted.
func TestSaveNeedsOffNodeCopy(t *testing.T) {
	spec := testSpec("n1", "n1", "n1", 10, 2, 0, 100)
	cfg := testConfig("n1", "", spec)
	cfg.DeadAfter = time.Second
	seed := startTestNodeWith(t, cfg)
	defer seed.Stop()
	n2 := startTestNode(t, "n2", seed.Addr(), spec)

	const task = "wc/probe/0"
	snap := []byte("probe state")
	v1 := state.Version{Timestamp: 1, Seq: 1}
	waitCondition(t, 5*time.Second, "save with a live peer", func() bool {
		return seed.backend.Save(task, snap, v1) == nil
	})

	crashNode(n2)
	if v := seed.View(); v.member("n2") == nil || !v.member("n2").Alive {
		t.Fatal("peer left the view before the save under test")
	}
	err := seed.backend.Save(task, snap, state.Version{Timestamp: 2, Seq: 2})
	if err == nil {
		t.Fatal("save acknowledged with its only peer crashed")
	}
	if held := seed.mgr.ShardsByApp()[task]; held != 0 {
		t.Fatalf("saver holds %d of its own replicas", held)
	}
	if p, err := seed.mgr.LookupPlacement(task); err != nil || p.Version != v1 {
		t.Fatalf("published placement = %v, %v; want v1 kept", p.Version, err)
	}

	waitCondition(t, 5*time.Second, "peer declared dead", func() bool {
		v := seed.View()
		m := v.member("n2")
		return m != nil && !m.Alive
	})
	err = seed.backend.Save(task, snap, state.Version{Timestamp: 3, Seq: 3})
	if !errors.Is(err, recovery.ErrUnderReplicated) {
		t.Fatalf("save with no live peer: want ErrUnderReplicated, got %v", err)
	}
	if c := seed.reg.Counter("sr3_recovery_save_underreplicated_total").Value(); c < 1 {
		t.Fatalf("under-replication counter = %d", c)
	}
}

// TestNodeStopLeakFree is the daemon-shutdown leak check: a two-node
// cluster with live cross-process edges must wind down to zero repo
// goroutines on Stop.
func TestNodeStopLeakFree(t *testing.T) {
	defer leakcheck.Verify(t)()
	spec := testSpec("n1", "n2", "n2", 500, 4, 0, 100)
	seed := startTestNode(t, "n1", "", spec)
	n2 := startTestNode(t, "n2", seed.Addr(), spec)
	waitSink(t, n2, 500, 10*time.Second)
	n2.Stop()
	seed.Stop()
}

// TestRejoinSameIdentity restarts a crashed member under the same name
// and asserts it is re-admitted with a fresh incarnation and receives
// shard pushes again from the repair loop.
func TestRejoinSameIdentity(t *testing.T) {
	spec := testSpec("n1", "n1", "n1", 4000, 8, 200, 25)
	seed := startTestNode(t, "n1", "", spec)
	defer seed.Stop()
	n2 := startTestNode(t, "n2", seed.Addr(), spec)

	time.Sleep(250 * time.Millisecond)
	crashNode(n2)

	// Wait for the control plane to declare n2 dead.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v := seed.View()
		m := v.member("n2")
		if m != nil && !m.Alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("n2 never declared dead")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Same name, new process (in spirit): must be re-admitted.
	n2b := startTestNode(t, "n2", seed.Addr(), spec)
	defer n2b.Stop()
	deadline = time.Now().Add(5 * time.Second)
	for {
		v := seed.View()
		m := v.member("n2")
		if m != nil && m.Alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("n2 never re-admitted")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Joining is ring traffic, counted by the member's transport.
	if c := n2b.reg.Counter("sr3_net_calls_total").Value(); c == 0 {
		t.Fatal("rejoined member counted no transport calls")
	}

	// The repair loop re-pushes shard replicas to the rejoined holder.
	deadline = time.Now().Add(5 * time.Second)
	for {
		held := 0
		for _, c := range n2b.Debug().ShardsHeld {
			held += c
		}
		if held > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rejoined node never received repaired shards")
		}
		time.Sleep(25 * time.Millisecond)
	}

	waitSink(t, seed, 4000, 20*time.Second)
}

// TestStaleIncarnationRejected covers the split-brain guard: a join
// under a name that is alive with a newer incarnation is refused.
func TestStaleIncarnationRejected(t *testing.T) {
	spec := testSpec("n1", "n1", "n1", 10, 2, 0, 100)
	seed := startTestNode(t, "n1", "", spec)
	defer seed.Stop()
	n2 := startTestNode(t, "n2", seed.Addr(), spec)
	defer n2.Stop()

	_, err := seed.control.handleJoin(&joinReq{
		Name: "n2", Addr: "127.0.0.1:1", Incarnation: n2.incarnation.Load() - 1,
	})
	if err == nil {
		t.Fatal("stale-incarnation join accepted")
	}
}

// TestRPCHandlersRejectBadPayloads feeds the join, heartbeat and adopt
// handlers nil and foreign payloads: each must answer with an error, not
// a panic, whether called in process or reached over the wire.
func TestRPCHandlersRejectBadPayloads(t *testing.T) {
	spec := testSpec("n1", "n1", "n1", 10, 2, 0, 100)
	seed := startTestNode(t, "n1", "", spec)
	defer seed.Stop()
	n2 := startTestNode(t, "n2", seed.Addr(), spec)
	defer n2.Stop()

	handlers := seed.rpcHandlers()
	cases := []struct {
		kind    string
		payload any
	}{
		{kindJoin, nil},
		{kindJoin, (*joinReq)(nil)},
		{kindJoin, &heartbeatReq{}},
		{kindHeartbeat, nil},
		{kindHeartbeat, (*heartbeatReq)(nil)},
		{kindHeartbeat, "heartbeat"},
		{kindAdopt, nil},
		{kindAdopt, (*adoptReq)(nil)},
		{kindAdopt, &joinReq{Name: "n3"}},
	}
	for _, c := range cases {
		h := handlers[c.kind]
		if h == nil {
			t.Fatalf("seed serves no %s handler", c.kind)
		}
		if _, err := h(ringID("n2"), simnet.Message{Kind: c.kind, Payload: c.payload}); err == nil {
			t.Errorf("%s accepted payload %T", c.kind, c.payload)
		}
	}
	if _, err := call[joinResp](n2, seedRingID, kindJoin, &leaveReq{Name: "n2"}, 0); err == nil {
		t.Error("seed accepted a leave payload as a join over the wire")
	}
	if _, ok := n2.rpcHandlers()[kindJoin]; ok {
		t.Error("a non-seed node serves the seed-only join kind")
	}
}

// TestSeqKeyCycles pins the deterministic key function the e2e harness
// relies on for regeneration.
func TestSeqKeyCycles(t *testing.T) {
	for seq := int64(1); seq <= 32; seq++ {
		want := fmt.Sprintf("k%04d", (seq-1)%8)
		if got := SeqKey(seq, 8); got != want {
			t.Fatalf("SeqKey(%d, 8) = %q, want %q", seq, got, want)
		}
	}
}
