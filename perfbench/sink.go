package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sr3"
)

// checker is the sink's exactly-once rule, kept in the perfbench process
// next to the generator's log. count emits (key, n) for the n-th tuple of
// key, carrying the input's Ts; so a result names exactly one input,
// seq = (n-1)*K + key + 1, and is correct only if its Ts is that input's
// due time. Per key the distinct results must be exactly n = 1..N, where N
// is the number of tuples gen emitted for the key:
//
//   - a result that names no emitted input, or whose Ts is not its input's
//     due time, is an over-count (bad);
//   - an input whose result never arrives is lost;
//   - the same (key, n, Ts) delivered again is a re-delivery: idempotent,
//     counted but not a failure.
//
// The sink itself is stateless; the checker also keeps each input's first
// receipt time, from which latency, recovery and catch-up are read.
type checker struct {
	gen  *generator
	keys int64

	mu       sync.Mutex
	recvNs   []int64 // recvNs[seq-1]: first receipt, 0 while missing
	distinct int64
	dup      int64
	bad      int64
	contig   int64 // seqs 1..contig have all been received
	maxSeq   int64
	badLog   []string // the first over-counted results, for diagnosis
}

func newChecker(g *generator) *checker {
	return &checker{gen: g, keys: g.keys}
}

// sinkBolt is the `sink` component: it hands each result to the checker.
func (c *checker) sinkBolt() sr3.Bolt {
	return sr3.BoltFunc(func(t sr3.Tuple, _ sr3.Emit) error {
		c.observe(t.StringAt(0), t.IntAt(1), t.Ts, time.Now().UnixNano())
		return nil
	})
}

func (c *checker) observe(key string, n, ts, now int64) {
	k, ok := c.gen.index[key]
	var seq, due int64
	if ok = ok && n >= 1; ok {
		seq = (n-1)*c.keys + k + 1
		due, ok = c.gen.dueOf(seq)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok || due != ts {
		c.bad++
		if len(c.badLog) < 5 {
			c.badLog = append(c.badLog, fmt.Sprintf("(%s, %d) at Ts %d: input %d was due at %d", key, n, ts, seq, due))
		}
		return
	}
	for int64(len(c.recvNs)) < seq {
		c.recvNs = append(c.recvNs, 0)
	}
	if c.recvNs[seq-1] != 0 {
		c.dup++
		return
	}
	c.recvNs[seq-1] = now
	c.distinct++
	if seq > c.maxSeq {
		c.maxSeq = seq
	}
	for c.contig < int64(len(c.recvNs)) && c.recvNs[c.contig] != 0 {
		c.contig++
	}
}

// progress returns the received prefix and the highest seq received.
func (c *checker) progress() (contig, maxSeq int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.contig, c.maxSeq
}

// tally counts failures against the inputs emitted so far: results lost
// and results over-counted, plus the harmless re-deliveries.
func (c *checker) tally(emitted int64) (lost, bad, dup int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lost = emitted - c.distinct
	return lost, c.bad, c.dup
}

// badSamples returns the first over-counted results.
func (c *checker) badSamples() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.badLog...)
}

// latencies returns receipt minus due time, in ns, for the received
// inputs in [from, to].
func (c *checker) latencies(from, to int64) []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int64
	for s := from; s <= to && s <= int64(len(c.recvNs)); s++ {
		if r := c.recvNs[s-1]; r != 0 {
			if due, ok := c.gen.dueOf(s); ok {
				out = append(out, r-due)
			}
		}
	}
	return out
}

// firstReceipt returns the earliest receipt among inputs seq >= from, and
// that input's seq (0, 0 when none arrived).
func (c *checker) firstReceipt(from int64) (at, seq int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for s := from; s <= int64(len(c.recvNs)); s++ {
		if r := c.recvNs[s-1]; r != 0 && (at == 0 || r < at) {
			at, seq = r, s
		}
	}
	return at, seq
}

// receipts returns the receipt times of the received inputs in
// [from, to], in order of receipt.
func (c *checker) receipts(from, to int64) []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int64
	for s := from; s <= to && s <= int64(len(c.recvNs)); s++ {
		if r := c.recvNs[s-1]; r != 0 {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// catchUp returns the first receipt at or after `after` (ns) of an input
// due after `dueAfter` whose latency is at most limit: when the sink is
// back to its pre-fault tail latency.
func (c *checker) catchUp(dueAfter, after, limit int64) int64 {
	from := c.gen.firstDueAfter(dueAfter)
	c.mu.Lock()
	defer c.mu.Unlock()
	var best int64
	for s := from; s <= int64(len(c.recvNs)); s++ {
		r := c.recvNs[s-1]
		if r == 0 || r < after || (best != 0 && r >= best) {
			continue
		}
		if due, ok := c.gen.dueOf(s); ok && r-due <= limit {
			best = r
		}
	}
	return best
}

// checkerSelfTest runs the exactly-once rule on a synthetic stream with a
// gap, an over-count and a re-delivered identical pair: the first two must
// count as failures and the third must pass. perfbench runs it before
// every benchmark run, so a checker that stopped catching faults fails
// the run instead of reporting a clean result.
func checkerSelfTest() error {
	const keys, inputs = 4, 12
	g := newGenerator(keys, 1)
	for s := int64(1); s <= inputs; s++ {
		g.due = append(g.due, 1000+s)
	}
	c := newChecker(g)
	deliver := func(seq int64) {
		k := (seq - 1) % keys
		c.observe(g.names[k], (seq-1)/keys+1, 1000+seq, 1)
	}
	for s := int64(1); s <= inputs; s++ {
		if s != 6 { // the gap: input 6's result is lost
			deliver(s)
		}
	}
	deliver(3)                        // re-delivered identical pair
	c.observe(g.names[1], 4, 1002, 1) // over-count: key 1 has only 3 inputs
	lost, bad, dup := c.tally(inputs)
	if lost != 1 || bad != 1 || dup != 1 {
		return fmt.Errorf("checker self-test: lost=%d bad=%d dup=%d, want 1 1 1", lost, bad, dup)
	}
	return nil
}

// keyCounts compares a final counter state against the generator's log
// and returns how many of the K keys disagree.
func keyCounts(g *generator, counts map[string]int64, emitted int64) (mismatched int64, sample []string) {
	for k := int64(0); k < g.keys; k++ {
		want := g.countOf(k, emitted)
		if got := counts[g.names[k]]; got != want {
			mismatched++
			if len(sample) < 5 {
				sample = append(sample, fmt.Sprintf("key %d: %d want %d", k, got, want))
			}
		}
	}
	sort.Strings(sample)
	return mismatched, sample
}
