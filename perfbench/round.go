package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"sr3"
)

// Cluster and schedule constants shared by every workload.
const (
	seedName  = "node1"
	numNodes  = 4 // node1 (perfbench itself: gen, sink, seed), node2 mid, node3 count, node4 spare
	shards    = 4
	replicas  = 2
	heartbeat = 100 * time.Millisecond
	deadAfter = time.Second
	// repair is the shard re-scatter period. A restarted victim gets its
	// counter shards back at the next re-scatter, so repair bounds
	// cluster.reprotect_s and with it the length of a kill cycle; it is
	// short enough that failover fits several cycles in a round, and
	// long enough that steady's re-scatters of its small state stay
	// rare next to its tuple traffic.
	repair = 700 * time.Millisecond
	// replayWindow is the daemons' default per-edge relay window; the
	// benchmark never overrides it.
	replayWindow = 1 << 16
	// fillTuples pushes more than one relay window through every edge
	// and touches every key of the largest workload before measuring.
	fillTuples = replayWindow + 1024
	// rate is the offered rate R of the paced phases, tuples/s: at most
	// a third of the seed's capacity on every workload, measured on a
	// shared 2-vCPU machine whose speed varies by up to 2x, so latency
	// stays clear of queueing.
	rate = 500.0
	// counterApp is the state key the count task saves under.
	counterApp = "bench/count/0"
	// waitLimit bounds every wait for the pipeline; a wait that runs out
	// is a failed operation.
	waitLimit = 25 * time.Second
	// settle is the pause after a victim is re-protected, before the
	// next kill.
	settle = 300 * time.Millisecond
)

// roundResult is what one cluster lifetime measured.
type roundResult struct {
	setupS     float64
	throughput float64
	latNs      []int64 // latencies the round reports, in input order
	cycles     []cycleResult
	peakRSSKB  int64

	attempted, failed int64
	redelivered       int64
	problems          []string

	gen     *generator
	layers  map[string][]float64 // traced per-layer samples
	fillMin float64              // fewest tuples any relay edge carried before measuring (traced)
}

type cycleResult struct {
	victim     string
	killNs     int64
	verdictNs  int64
	eventNs    int64
	mttrS      float64
	recoverS   float64
	reprotectS float64
	catchupS   float64
	ok         bool
}

// current is the round the registered gen and sink kinds bind to: node1
// builds its cell from them when the round's cluster starts.
var current struct {
	sync.Mutex
	gen *generator
	chk *checker
}

func init() {
	sr3.RegisterSpout("bench.gen", func(_ sr3.ClusterComponent, stop <-chan struct{}) (sr3.Spout, error) {
		current.Lock()
		defer current.Unlock()
		if current.gen == nil {
			return nil, fmt.Errorf("bench.gen: no round in progress")
		}
		return current.gen.spout(stop), nil
	})
	sr3.RegisterBolt("bench.sink", false, 1, func(sr3.ClusterComponent) (sr3.Bolt, error) {
		current.Lock()
		defer current.Unlock()
		if current.chk == nil {
			return nil, fmt.Errorf("bench.sink: no round in progress")
		}
		return current.chk.sinkBolt(), nil
	})
}

// topology is the pipeline every workload runs: gen (node1) -> mid
// bolt.identity (node2, shuffle) -> count bolt.counter (node3, fields on
// the key) -> sink (node1, global). node4 hosts nothing until it adopts.
func topology(w workload) string {
	return fmt.Sprintf(`topology: bench
save_every: %d
shards: %d
replicas: %d
components:
  - id: gen
    kind: bench.gen
    node: node1
  - id: mid
    kind: bolt.identity
    node: node2
    inputs:
      - from: gen
        grouping: shuffle
  - id: count
    kind: bolt.counter
    node: node3
    key_field: 0
    seq_field: 1
    inputs:
      - from: mid
        grouping: fields
        field: 0
  - id: sink
    kind: bench.sink
    node: node1
    inputs:
      - from: count
        grouping: global
`, w.saveEvery, shards, replicas)
}

// edges are the cross-process edges, named as the nodes export them.
var edges = []string{"gen__mid", "mid__count", "count__sink"}

// round runs one cluster lifetime: set up, burst, paced window, kill
// cycles, drain and final check.
func (b *bench) round(idx int) *roundResult {
	w := b.w
	res := &roundResult{layers: map[string][]float64{}}
	res.attempted++ // the start itself
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		res.problems = append(res.problems, msg)
		fmt.Fprintf(os.Stderr, "perfbench: round %d: %s\n", idx, msg)
	}
	dir := filepath.Join(b.work, fmt.Sprintf("round%d", idx))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		res.failed++
		fail("%v", err)
		return res
	}
	topo := filepath.Join(dir, "topology.yaml")
	if err := os.WriteFile(topo, []byte(topology(w)), 0o644); err != nil {
		res.failed++
		fail("%v", err)
		return res
	}
	g := newGenerator(w.keys, b.seed)
	chk := newChecker(g)
	res.gen = g
	current.Lock()
	current.gen, current.chk = g, chk
	current.Unlock()

	// node1 is this process: return the heap earlier rounds left behind
	// and start its VmHWM afresh, so each round reads its own peak.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		fail("node1's peak RSS includes earlier rounds: %v", err)
	}
	h := b.h
	t0 := time.Now()
	err := h.start(sr3.PlaygroundConfig{
		Bin: b.nodeBin, Nodes: numNodes, TopoFile: topo, Dir: dir,
		Heartbeat: heartbeat, DeadAfter: deadAfter, Repair: repair,
	})
	defer h.stop()
	if err == nil {
		err = b.segment(g, chk, fillTuples, 0)
	}
	if err != nil {
		res.failed++
		lost, bad, dup := chk.tally(g.emitted())
		fail("start: %v (emitted %d, lost %d, over-counted %d, re-delivered %d; %v)", err, g.emitted(), lost, bad, dup, chk.badSamples())
		h.tailLogs()
		return res
	}
	res.setupS = time.Since(t0).Seconds()
	tr := b.newTracer(h)
	tr.mark("fill")
	// A measured phase that cannot complete is a failed operation.
	cycleFrom, cycleTo, err := b.measure(idx, res, g, chk, tr)
	if err != nil {
		res.failed++
		fail("%v", err)
	}

	// Drain, then check every result and the final counter state.
	emitted := g.emitted()
	deadline := time.Now().Add(waitLimit)
	for {
		contig, _ := chk.progress()
		if contig >= emitted || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if w.cycleLatency && cycleTo > 0 {
		res.latNs = chk.latencies(cycleFrom, cycleTo)
	}
	lost, bad, dup := chk.tally(emitted)
	res.attempted += emitted
	res.failed += lost + bad
	res.redelivered = dup
	if lost+bad > 0 {
		fail("%d results lost, %d over-counted of %d; first over-counts %v", lost, bad, emitted, chk.badSamples())
	}
	res.attempted += w.keys
	if mism, sample, err := b.finalState(h, g, emitted); err != nil {
		res.failed += w.keys
		fail("final state: %v", err)
	} else if mism > 0 {
		res.failed += mism
		fail("final state: %d of %d keys disagree with gen's log, e.g. %v", mism, w.keys, sample)
	}
	res.peakRSSKB = b.peakRSS(h)
	tr.finish(res)
	if len(res.problems) > 0 {
		h.tailLogs()
	}
	return res
}

// measure runs a round's measured phases on a filled cluster: the
// throughput burst, the paced latency window and the kill cycles. It
// returns the inputs due during the cycles, and stops at the first phase
// that cannot complete.
func (b *bench) measure(idx int, res *roundResult, g *generator, chk *checker, tr *tracer) (cycleFrom, cycleTo int64, err error) {
	w, h := b.w, b.h

	// Throughput: an unpaced burst; the sink's result rate once the
	// pipeline is full, from the receipt of the burst's first tenth to
	// that of its last result.
	res.attempted++
	from := g.emitted() + 1
	if err := b.segment(g, chk, w.burst, 0); err != nil {
		return 0, 0, fmt.Errorf("burst: %w", err)
	}
	rc := chk.receipts(from, from+w.burst-1)
	first := len(rc) / 10
	res.throughput = float64(len(rc)-1-first) / (float64(rc[len(rc)-1]-rc[first]) / 1e9)
	tr.mark("burst")

	// Latency: a paced window at R.
	res.attempted++
	n := int64(rate * w.pacedSec)
	from = g.emitted() + 1
	paced, err := g.run(n, rate, waitLimit)
	if err == nil {
		err = b.waitSegment(paced, chk, n)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("paced window: %w", err)
	}
	res.latNs = chk.latencies(from, from+n-1)
	tr.mark("paced")
	tr.genStats(paced)
	preP99 := int64(percentile(toFloat(res.latNs), 0.99))

	cycles := w.cycles[idx]
	open, err := g.run(-1, rate, waitLimit)
	if err != nil {
		return 0, 0, fmt.Errorf("kill cycles: %w", err)
	}
	for c := 0; c < cycles; c++ {
		res.attempted++
		cy := b.cycle(h, g, chk, preP99, tr, c < cycles-1)
		res.cycles = append(res.cycles, cy)
		if !cy.ok {
			err = fmt.Errorf("cycle %d (victim %s) not exact again within %v", c, cy.victim, waitLimit)
			break
		}
	}
	if _, err2 := g.run(0, 0, waitLimit); err2 != nil {
		return 0, 0, fmt.Errorf("kill cycles: %w", err2)
	}
	select {
	case <-open.done:
	case <-time.After(waitLimit):
		return 0, 0, fmt.Errorf("kill cycles: generator did not stop")
	}
	return open.firstSeq, g.emitted(), err
}

// segment runs a finite segment and waits for all of its results.
func (b *bench) segment(g *generator, chk *checker, n int64, r float64) error {
	s, err := g.run(n, r, waitLimit)
	if err != nil {
		return err
	}
	return b.waitSegment(s, chk, n)
}

// waitSegment waits until a finite segment has been emitted and every
// result up to its last input has reached the sink.
func (b *bench) waitSegment(s *segment, chk *checker, n int64) error {
	select {
	case <-s.done:
	case <-time.After(waitLimit + time.Duration(float64(n)/rate*float64(time.Second))):
		return fmt.Errorf("generator stalled")
	}
	last := s.firstSeq + n - 1
	deadline := time.Now().Add(waitLimit)
	for {
		contig, _ := chk.progress()
		if contig >= last {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("results up to seq %d not all received (have %d)", last, contig)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cycle is one kill-and-recover cycle under paced load: SIGKILL the host
// of count, wait for exact output, restart the victim under the same
// identity, wait until it holds counter shards again, and, when another
// cycle follows, settle: wait until the sink has caught up with the
// schedule, so every cycle starts from the same steady state.
func (b *bench) cycle(h *harness, g *generator, chk *checker, preP99 int64, tr *tracer, settleAfter bool) cycleResult {
	view := h.node1.View()
	victim := view.Assign["count"]
	cy := cycleResult{victim: victim}
	b.notePeak(victim)

	verdict := make(chan int64, 1)
	stopPoll := make(chan struct{})
	go func() {
		defer close(verdict)
		for {
			select {
			case <-stopPoll:
				return
			case <-time.After(2 * time.Millisecond):
			}
			for _, m := range h.node1.View().Members {
				if m.Name == victim && !m.Alive {
					verdict <- time.Now().UnixNano()
					return
				}
			}
		}
	}()
	cy.killNs = time.Now().UnixNano()
	if err := h.pg.Kill(victim); err != nil {
		close(stopPoll)
		return cy
	}

	// The recovery event: the first result of an input due after the kill.
	deadline := time.Now().Add(waitLimit)
	var from int64
	for {
		from = g.firstDueAfter(cy.killNs)
		if _, maxSeq := chk.progress(); from <= g.emitted() && maxSeq >= from {
			break
		}
		if time.Now().After(deadline) {
			close(stopPoll)
			return cy
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Exact again: every input due before the kill has its result.
	for {
		if contig, _ := chk.progress(); contig >= from-1 {
			break
		}
		if time.Now().After(deadline) {
			close(stopPoll)
			return cy
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stopPoll)
	cy.verdictNs = <-verdict
	cy.eventNs, _ = chk.firstReceipt(from)
	cy.mttrS = float64(cy.eventNs-cy.killNs) / 1e9
	if cy.verdictNs != 0 {
		cy.recoverS = float64(cy.eventNs-cy.verdictNs) / 1e9
	}

	restart := time.Now()
	if err := h.pg.Restart(victim); err != nil {
		return cy
	}
	want := shards * replicas / numNodes
	for {
		if d, err := h.pg.Debug(victim); err == nil && d.ShardsHeld[counterApp] >= want {
			break
		}
		if time.Since(restart) > waitLimit {
			return cy
		}
		time.Sleep(10 * time.Millisecond)
	}
	cy.reprotectS = time.Since(restart).Seconds()
	for settleAfter {
		// Caught up: every input due more than the pre-kill p99 ago has
		// its result.
		contig, _ := chk.progress()
		if contig >= g.firstDueAfter(time.Now().UnixNano()-preP99)-1 {
			time.Sleep(settle)
			break
		}
		if time.Now().After(deadline.Add(waitLimit)) {
			return cy
		}
		time.Sleep(5 * time.Millisecond)
	}
	if at := chk.catchUp(cy.killNs, cy.eventNs, preP99); at != 0 {
		cy.catchupS = float64(at-cy.killNs) / 1e9
	}
	cy.ok = true
	tr.cycleTrace(&cy)
	return cy
}

// finalState reads count's state from its host and compares every key
// with the generator's log.
func (b *bench) finalState(h *harness, g *generator, emitted int64) (int64, []string, error) {
	host := h.node1.View().Assign["count"]
	d, err := h.pg.Debug(host)
	if err != nil {
		return 0, nil, err
	}
	for _, c := range d.Cells {
		if cs, ok := c.Counters["count"]; ok {
			m, sample := keyCounts(g, cs.Counts, emitted)
			return m, sample, nil
		}
	}
	return 0, nil, fmt.Errorf("%s hosts no count cell", host)
}

// notePeak records a node's VmHWM; a victim's is read just before it is
// killed.
func (b *bench) notePeak(name string) {
	if pid := nodePID(name); pid != 0 {
		if kb, err := peakRSSKB(pid); err == nil && kb > b.peaks[name] {
			b.peaks[name] = kb
		}
	}
}

// peakRSS sums the peak resident set over the round's node processes.
func (b *bench) peakRSS(h *harness) int64 {
	for _, name := range h.pg.Names() {
		b.notePeak(name)
	}
	var sum int64
	names := make([]string, 0, len(b.peaks))
	for name := range b.peaks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sum += b.peaks[name]
	}
	b.peaks = map[string]int64{}
	return sum
}
