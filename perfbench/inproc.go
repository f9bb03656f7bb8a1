package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"sr3"
)

// inprocLayers times, in this process and after the last round, the
// layers the cluster calls, on the workload's own inputs: the tuple
// codec, the whole job in one runtime with no network, and the state and
// recovery calls on a counter state of the workload's size.
func (b *bench) inprocLayers(rounds []*roundResult) map[string]float64 {
	out := map[string]float64{}
	var g *generator
	for _, r := range rounds {
		if r.gen != nil && r.gen.emitted() > 0 {
			g = r.gen
		}
	}
	if g == nil {
		return out
	}
	out["stream.codec_ns_per_tuple"] = codecNsPerTuple(g)
	if tps, err := inprocTPS(b.w, g); err == nil {
		out["stream.inproc_tps"] = tps
	} else {
		fmt.Fprintln(os.Stderr, "perfbench: in-process baseline:", err)
	}

	st := counterState(g)
	snap, err := st.Snapshot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: snapshot:", err)
		return out
	}
	out["state.snapshot_ms"] = timeMs(5, func() error { _, err := st.Snapshot(); return err })
	fw, err := sr3.New(sr3.Config{Nodes: 16, Seed: b.seed})
	if err == nil {
		out["shard.split_ms"] = timeMs(5, func() error { _, err := fw.StateSplit(snap, shards, replicas); return err })
	}
	out["state.restore_ms"] = timeMs(5, func() error { return sr3.NewMapStore().Restore(snap) })

	var saves []float64
	for _, mech := range []string{"star", "line", "tree"} {
		ms, saveMs, err := recoverWith(mech, snap, b.seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s recovery: %v\n", mech, err)
			continue
		}
		out["recovery."+mech+"_ms"] = ms
		saves = append(saves, saveMs)
	}
	if len(saves) > 0 {
		out["recovery.save_ms"] = median(saves)
	}
	return out
}

// counterState rebuilds count's final state (counts and per-key
// watermarks, as bolt.counter keeps them) from the generator's log.
func counterState(g *generator) *sr3.MapStore {
	st := sr3.NewMapStore()
	emitted := g.emitted()
	for k := int64(0); k < g.keys; k++ {
		n := g.countOf(k, emitted)
		if n == 0 {
			continue
		}
		key := g.names[k]
		st.Put("c|"+key, []byte(strconv.FormatInt(n, 10)))
		st.Put("\x00wm|mid|"+key, []byte(strconv.FormatInt((n-1)*g.keys+k+1, 10)))
	}
	return st
}

// timeMs runs fn reps times and returns the median wall time in ms.
func timeMs(reps int, fn func() error) float64 {
	var ms []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return math.NaN()
		}
		ms = append(ms, float64(time.Since(t).Microseconds())/1e3)
	}
	return median(ms)
}

// codecNsPerTuple times encode+decode of 256-tuple batch frames built
// from the generator's first inputs.
func codecNsPerTuple(g *generator) float64 {
	batch := make([]sr3.Tuple, 256)
	for i := range batch {
		seq := int64(i + 1)
		due, _ := g.dueOf(seq)
		batch[i] = sr3.Tuple{Stream: "mid", Values: []any{g.names[(seq-1)%g.keys], seq}, Ts: due}
	}
	var buf []byte
	var per []float64
	for rep := 0; rep < 5; rep++ {
		iters := 0
		t := time.Now()
		for time.Since(t) < 100*time.Millisecond {
			var err error
			buf, err = sr3.EncodeTupleBatch(buf[:0], batch, sr3.ClassIngest)
			if err != nil {
				return 0
			}
			if _, _, err := sr3.DecodeTupleBatch(buf); err != nil {
				return 0
			}
			iters++
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(iters*len(batch)))
	}
	return median(per)
}

// counterBolt is bolt.counter's logic for the in-process baseline.
type counterBolt struct{ st *sr3.MapStore }

func (c *counterBolt) Store() sr3.StateStore { return c.st }

func (c *counterBolt) Execute(t sr3.Tuple, emit sr3.Emit) error {
	key, seq := t.StringAt(0), t.IntAt(1)
	wm := "\x00wm|" + t.Stream + "|" + key
	if raw, ok := c.st.Get(wm); ok {
		if last, _ := strconv.ParseInt(string(raw), 10, 64); seq <= last {
			return nil
		}
	}
	c.st.Put(wm, []byte(strconv.FormatInt(seq, 10)))
	n := int64(1)
	if raw, ok := c.st.Get("c|" + key); ok {
		v, _ := strconv.ParseInt(string(raw), 10, 64)
		n = v + 1
	}
	c.st.Put("c|"+key, []byte(strconv.FormatInt(n, 10)))
	emit(sr3.Tuple{Values: []any{key, n}, Ts: t.Ts})
	return nil
}

// inprocTPS runs the workload's job (fill, then its burst) in one
// runtime with no network and returns the burst's results per second.
func inprocTPS(w workload, g *generator) (float64, error) {
	total := int64(fillTuples) + w.burst
	var seq int64
	var got atomic.Int64
	var fillDone, last atomic.Int64
	topo := sr3.NewTopology("inproc")
	if err := topo.AddSpout("gen", sr3.SpoutFunc(func() (sr3.Tuple, bool) {
		if seq >= total {
			return sr3.Tuple{}, false
		}
		seq++
		return sr3.Tuple{Values: []any{g.names[(seq-1)%g.keys], seq}, Ts: time.Now().UnixNano()}, true
	})); err != nil {
		return 0, err
	}
	sink := sr3.BoltFunc(func(sr3.Tuple, sr3.Emit) error {
		n := got.Add(1)
		if n == fillTuples {
			fillDone.Store(time.Now().UnixNano())
		}
		last.Store(time.Now().UnixNano())
		return nil
	})
	for _, err := range []error{
		topo.AddBolt("mid", sr3.BoltFunc(func(t sr3.Tuple, emit sr3.Emit) error { emit(t); return nil }), 1).Shuffle("gen").Err(),
		topo.AddBolt("count", &counterBolt{st: sr3.NewMapStore()}, 1).Fields("mid", 0).Err(),
		topo.AddBolt("sink", sink, 1).Global("count").Err(),
	} {
		if err != nil {
			return 0, err
		}
	}
	rt, err := sr3.NewRuntime(topo, sr3.RuntimeConfig{ChannelDepth: 1024})
	if err != nil {
		return 0, err
	}
	rt.Start()
	if err := rt.Wait(); err != nil {
		return 0, err
	}
	if got.Load() != total {
		return 0, fmt.Errorf("in-process job delivered %d of %d results", got.Load(), total)
	}
	return float64(w.burst) / (float64(last.Load()-fillDone.Load()) / 1e9), nil
}

// recoverWith saves snap in a fresh in-process deployment, then times
// defining the mechanism, failing the owner and recovering. It returns
// the recovery and save times in ms.
func recoverWith(mech string, snap []byte, seed int64) (recoverMs, saveMs float64, err error) {
	fw, err := sr3.New(sr3.Config{Nodes: 16, Seed: seed})
	if err != nil {
		return 0, 0, err
	}
	const app = "count"
	if err := fw.SetSharding(app, shards, replicas); err != nil {
		return 0, 0, err
	}
	t := time.Now()
	if err := fw.Save(app, snap); err != nil {
		return 0, 0, err
	}
	saveMs = float64(time.Since(t).Microseconds()) / 1e3
	t = time.Now()
	switch mech {
	case "star":
		err = fw.StarDefine(app, 2)
	case "line":
		err = fw.LineDefine(app, 2)
	case "tree":
		err = fw.TreeDefine(app, 1, 2)
	}
	if err != nil {
		return 0, 0, err
	}
	owner, err := fw.OwnerOf(app)
	if err != nil {
		return 0, 0, err
	}
	fw.FailNode(owner)
	rep, err := fw.Recover(app)
	if err != nil {
		return 0, 0, err
	}
	recoverMs = float64(time.Since(t).Microseconds()) / 1e3
	if len(rep.State) != len(snap) {
		return 0, 0, fmt.Errorf("recovered %d of %d bytes", len(rep.State), len(snap))
	}
	return recoverMs, saveMs, nil
}
