package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sr3"
)

// generator is the benchmark's load source: the `gen` spout, run from one
// goroutine in the perfbench process (which hosts node1). It emits
// (key, seq) with seq = 1, 2, ... and key = names[(seq-1) mod K], and stamps each
// tuple's Ts with the tuple's due time in UnixNano, so the sink can measure
// latency from when a tuple was due, not from when a stalled pump got to
// it. Its schedule is open loop: perfbench hands it segments, each either
// unpaced (as fast as backpressure allows) or paced at a fixed rate. The
// run's seed draws the K key names, all of one length so that the state
// size does not depend on the seed.
//
// The due-time log doubles as the exactly-once reference: the result
// (key, n) belongs to seq (n-1)*K + index(key) + 1, and its Ts must equal
// that seq's due time.
type generator struct {
	keys  int64
	names []string         // key index -> key
	index map[string]int64 // key -> key index
	segs  chan *segment

	mu  sync.Mutex
	due []int64 // due[seq-1]

	// Owned by the spout goroutine; read by the main goroutine only after the
	// segment's done channel closed.
	cur  *segment
	next int64 // tuples emitted in cur
}

// segment is one part of the schedule.
type segment struct {
	n    int64   // tuples to emit; < 0 runs until the next segment arrives
	rate float64 // tuples per second; 0 is unpaced
	done chan struct{}

	start    time.Time
	firstSeq int64
	lagNs    []int64 // emit time minus due time, paced segments only
	lastEmit time.Time
}

func newGenerator(keys, seed int64) *generator {
	g := &generator{keys: keys, index: make(map[string]int64, keys), segs: make(chan *segment)}
	rng := rand.New(rand.NewSource(seed))
	for int64(len(g.names)) < keys {
		name := fmt.Sprintf("%06x", rng.Int63n(1<<24))
		if _, dup := g.index[name]; !dup {
			g.index[name] = int64(len(g.names))
			g.names = append(g.names, name)
		}
	}
	return g
}

// run hands the spout a new segment, which replaces any open-ended one,
// and returns it; a finite segment's done channel closes once its last
// tuple has been emitted. It fails if the spout does not take the
// segment within timeout, which happens only when the pipeline is stuck.
func (g *generator) run(n int64, rate float64, timeout time.Duration) (*segment, error) {
	s := &segment{n: n, rate: rate, done: make(chan struct{})}
	select {
	case g.segs <- s:
		return s, nil
	case <-time.After(timeout):
		return nil, fmt.Errorf("generator did not take a new segment within %v", timeout)
	}
}

// emitted is the number of tuples generated so far.
func (g *generator) emitted() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return int64(len(g.due))
}

// dueOf returns the due time of seq, false when seq was never emitted.
func (g *generator) dueOf(seq int64) (int64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if seq < 1 || seq > int64(len(g.due)) {
		return 0, false
	}
	return g.due[seq-1], true
}

// firstDueAfter returns the lowest seq whose due time is after t (and
// emitted+1 when there is none yet).
func (g *generator) firstDueAfter(t int64) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	lo, hi := 0, len(g.due)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.due[mid] > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return int64(lo) + 1
}

// countOf is the number of tuples generated for key index k among
// seq 1..upTo.
func (g *generator) countOf(k, upTo int64) int64 {
	if upTo <= k {
		return 0
	}
	return (upTo-k-1)/g.keys + 1
}

// spout builds the sr3 spout that pumps this generator until stop closes.
func (g *generator) spout(stop <-chan struct{}) sr3.Spout {
	return sr3.SpoutFunc(func() (sr3.Tuple, bool) { return g.nextTuple(stop) })
}

func (g *generator) nextTuple(stop <-chan struct{}) (sr3.Tuple, bool) {
	for g.cur == nil || (g.cur.n >= 0 && g.next >= g.cur.n) {
		if g.cur != nil {
			close(g.cur.done)
			g.cur = nil
		}
		select {
		case s := <-g.segs:
			g.begin(s)
		case <-stop:
			return sr3.Tuple{}, false
		}
	}
	if g.cur.n < 0 {
		select {
		case s := <-g.segs:
			close(g.cur.done)
			g.begin(s)
			return g.nextTuple(stop)
		default:
		}
	}
	s := g.cur
	now := time.Now()
	due := now
	if s.rate > 0 {
		due = s.start.Add(time.Duration(float64(g.next) * 1e9 / s.rate))
		if wait := due.Sub(now); wait > 0 {
			select {
			case <-time.After(wait):
			case <-stop:
				return sr3.Tuple{}, false
			}
			now = time.Now()
		}
		s.lagNs = append(s.lagNs, now.Sub(due).Nanoseconds())
	}
	s.lastEmit = now
	g.next++
	g.mu.Lock()
	dueNs := due.UnixNano()
	if n := len(g.due); n > 0 && dueNs <= g.due[n-1] {
		dueNs = g.due[n-1] + 1 // keep due times strictly increasing
	}
	g.due = append(g.due, dueNs)
	seq := int64(len(g.due))
	g.mu.Unlock()
	return sr3.Tuple{Values: []any{g.names[(seq-1)%g.keys], seq}, Ts: dueNs}, true
}

func (g *generator) begin(s *segment) {
	g.cur, g.next = s, 0
	s.start = time.Now()
	s.firstSeq = g.emitted() + 1
	if s.n == 0 {
		close(s.done)
		g.cur = nil
	}
}
