package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// layer is one per-layer metric: what it reads and which end-to-end
// metric it should move is listed in perfbench/README.md.
type layer struct {
	name, unit, better string
}

// perLayer is every metric a traced run reports, in BENCHMARK.json order.
var perLayer = func() []layer {
	var ls []layer
	add := func(name, unit, better string) { ls = append(ls, layer{name, unit, better}) }
	add("latency_p99_ms", "ms", "lower") // end to end, but too unsteady to gate
	add("gen.lag_ms_p99", "ms", "lower")
	add("gen.offered_tps", "tuples/s", "higher")
	for _, b := range []string{"mid", "count", "sink", "relay.gen__mid", "relay.mid__count", "relay.count__sink"} {
		add("stream.proc_us_p50."+b, "us", "lower")
		add("stream.proc_us_p99."+b, "us", "lower")
		add("stream.emit_blocked_ms."+b, "ms", "lower")
		add("stream.queue_high_water."+b, "tuples", "lower")
	}
	for _, e := range edges {
		add("cluster.edge_hop_ms_p50."+e, "ms", "lower")
		add("cluster.edge_hop_ms_p99."+e, "ms", "lower")
		add("cluster.edge_lag_ms_p99."+e, "ms", "lower")
		add("cluster.tuples_per_frame."+e, "tuples", "higher")
	}
	for i := 1; i <= numNodes; i++ {
		add(fmt.Sprintf("cluster.cpu_ms_per_ktuple.node%d", i), "ms", "lower")
	}
	add("stream.codec_ns_per_tuple", "ns", "lower")
	add("stream.inproc_tps", "tuples/s", "higher")
	add("stream.state_bytes.count", "bytes", "lower")
	add("state.snapshot_ms", "ms", "lower")
	add("shard.split_ms", "ms", "lower")
	add("cluster.detect_s", "s", "lower")
	add("cluster.adopt_s", "s", "lower")
	add("cluster.fetch_ms", "ms", "lower")
	add("cluster.fetch_failed", "count", "lower")
	add("cluster.merge_ms", "ms", "lower")
	add("stream.restore_ms", "ms", "lower")
	add("stream.replay_ms", "ms", "lower")
	add("stream.replay_tuples", "tuples", "lower")
	add("state.restore_ms", "ms", "lower")
	add("cluster.resume_s", "s", "lower")
	add("cluster.sum_gap_ms", "ms", "lower")
	add("cluster.reprotect_s", "s", "lower")
	add("sink.catchup_s", "s", "lower")
	add("recovery.save_ms", "ms", "lower")
	add("recovery.star_ms", "ms", "lower")
	add("recovery.line_ms", "ms", "lower")
	add("recovery.tree_ms", "ms", "lower")
	add("fail_ratio", "ratio", "lower")
	return ls
}()

// tracer gathers the per-layer figures of a traced run. A nil tracer
// (untraced runs) does nothing, so the end-to-end runs pay only for the
// checker and the membership poll.
type tracer struct {
	b      *bench
	h      *harness
	marks  map[string]*scrape
	ticks  map[string]map[string]int64 // mark -> node -> cpu ticks
	layers map[string][]float64
}

func (b *bench) newTracer(h *harness) *tracer {
	if !b.trace {
		return nil
	}
	return &tracer{b: b, h: h, marks: map[string]*scrape{}, ticks: map[string]map[string]int64{}, layers: map[string][]float64{}}
}

func (t *tracer) add(name string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		t.layers[name] = append(t.layers[name], v)
	}
}

// mark scrapes every node's /metrics and CPU time at a phase boundary.
func (t *tracer) mark(phase string) {
	if t == nil {
		return
	}
	s := newScrape()
	ticks := map[string]int64{}
	for _, name := range t.h.pg.Names() {
		if text, err := t.h.pg.Metrics(name); err == nil {
			s.add(text)
		}
		if pid := nodePID(name); pid != 0 {
			if n, err := procCPUTicks(pid); err == nil {
				ticks[name] = n
			}
		}
	}
	t.marks[phase], t.ticks[phase] = s, ticks
}

// genStats records how late the generator ran against its schedule.
func (t *tracer) genStats(s *segment) {
	if t == nil {
		return
	}
	lag := toFloat(s.lagNs)
	t.add("gen.lag_ms_p99", percentile(lag, 0.99)/1e6)
	if n := len(s.lagNs); n > 1 {
		t.add("gen.offered_tps", float64(n-1)/s.lastEmit.Sub(s.start).Seconds())
	}
}

// bolts maps the per-layer bolt label to the task's metric prefix (the
// task key with / mapped to _).
var bolts = map[string]string{
	"mid":               "sr3_stream_task_bench_mid_0",
	"count":             "sr3_stream_task_bench_count_0",
	"sink":              "sr3_stream_task_bench_sink_0",
	"relay.gen__mid":    "sr3_stream_task_bench___relay_gen_mid_0",
	"relay.mid__count":  "sr3_stream_task_bench___relay_mid_count_0",
	"relay.count__sink": "sr3_stream_task_bench___relay_count_sink_0",
}

// finish derives the round's steady-state layer figures from the phase
// scrapes: execution, queues and CPU over burst+paced, backpressure and
// framing over the burst, wire latency over the paced window.
func (t *tracer) finish(res *roundResult) {
	if t == nil {
		return
	}
	fill, burst, paced := t.marks["fill"], t.marks["burst"], t.marks["paced"]
	if fill == nil || burst == nil || paced == nil {
		res.layers = t.layers
		return
	}
	res.fillMin = math.Inf(1)
	for _, e := range edges {
		res.fillMin = math.Min(res.fillMin, fill.vals["sr3_cluster_edge_"+e+"_tuples_total"])
	}
	for label, p := range bolts {
		t.add("stream.proc_us_p50."+label, quantileDelta(fill, paced, p+"_proc_ns", 0.50)*1e6)
		t.add("stream.proc_us_p99."+label, quantileDelta(fill, paced, p+"_proc_ns", 0.99)*1e6)
		t.add("stream.emit_blocked_ms."+label, (burst.vals[p+"_emit_blocked_ns_total"]-fill.vals[p+"_emit_blocked_ns_total"])/1e6)
		t.add("stream.queue_high_water."+label, paced.vals[p+"_queue_high_water"])
	}
	for _, e := range edges {
		hop, lag := "sr3_cluster_edge_hop_ns_"+e, "sr3_cluster_edge_lag_ns_"+e
		t.add("cluster.edge_hop_ms_p50."+e, quantileDelta(burst, paced, hop, 0.50)*1e3)
		t.add("cluster.edge_hop_ms_p99."+e, quantileDelta(burst, paced, hop, 0.99)*1e3)
		t.add("cluster.edge_lag_ms_p99."+e, quantileDelta(burst, paced, lag, 0.99)*1e3)
		frames := burst.vals["sr3_cluster_edge_"+e+"_frames_total"] - fill.vals["sr3_cluster_edge_"+e+"_frames_total"]
		tuples := burst.vals["sr3_cluster_edge_"+e+"_tuples_total"] - fill.vals["sr3_cluster_edge_"+e+"_tuples_total"]
		if frames > 0 {
			t.add("cluster.tuples_per_frame."+e, tuples/frames)
		}
	}
	// CPU over burst and paced window together: long enough that even
	// the idle spare accrues clock ticks.
	tuples := float64(t.b.w.burst) + rate*t.b.w.pacedSec
	for _, name := range t.h.pg.Names() {
		d := t.ticks["paced"][name] - t.ticks["fill"][name]
		t.add("cluster.cpu_ms_per_ktuple."+name, float64(d)*1000/clockTick/(tuples/1000))
	}
	t.add("stream.state_bytes.count", paced.vals[bolts["count"]+"_state_bytes"])
	res.layers = t.layers
}

// span is one record of the seed's stitched /debug/sr3/trace.
type span struct {
	Trace  uint64 `json:"trace"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Attrs  []struct {
		K string `json:"k"`
		S string `json:"s"`
		I int64  `json:"i"`
	} `json:"attrs"`
}

func (s span) attr(k string) (string, int64) {
	for _, a := range s.Attrs {
		if a.K == k {
			return a.S, a.I
		}
	}
	return "", 0
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// cycleTrace pulls the seed's stitched trace after a cycle and splits
// the cycle's MTTR into detect, adopt (fetch, merge, restore, replay)
// and resume.
func (t *tracer) cycleTrace(cy *cycleResult) {
	if t == nil {
		return
	}
	body, err := t.h.pg.HTTPGet(seedName, "/debug/sr3/trace")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace:", err)
		return
	}
	var all []span
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		var s span
		if json.Unmarshal(sc.Bytes(), &s) == nil {
			all = append(all, s)
		}
	}
	// The cycle's root: the newest selfheal for the victim that began
	// (at its last heartbeat) no later than the kill.
	var root *span
	for i := range all {
		s := &all[i]
		if dead, _ := s.attr("dead"); s.Phase == "selfheal" && dead == cy.victim && s.Start <= cy.killNs &&
			(root == nil || s.Start > root.Start) {
			root = s
		}
	}
	if root == nil {
		fmt.Fprintf(os.Stderr, "perfbench: no recovery trace for %s\n", cy.victim)
		return
	}
	var inTrace []span
	for _, s := range all {
		if s.Trace == root.Trace {
			inTrace = append(inTrace, s)
		}
	}
	child := func(parent uint64, phase string) []span {
		var out []span
		for _, s := range inTrace {
			if s.Parent == parent && s.Phase == phase {
				out = append(out, s)
			}
		}
		return out
	}
	detect := child(root.Span, "detect")
	adopt := child(root.Span, "adopt")
	if len(detect) != 1 || len(adopt) != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: trace for %s has %d detect and %d adopt spans\n", cy.victim, len(detect), len(adopt))
		return
	}
	d, a := detect[0], adopt[0]
	resume := float64(cy.eventNs-a.End) / 1e9
	t.add("cluster.detect_s", d.dur())
	t.add("cluster.adopt_s", a.dur())
	t.add("cluster.resume_s", resume)
	t.add("cluster.sum_gap_ms", (d.dur()+a.dur()+resume-cy.mttrS)*1e3)
	t.add("cluster.reprotect_s", cy.reprotectS)
	t.add("sink.catchup_s", cy.catchupS)

	// The adopter's work hangs under adopt: a recover span whose
	// children are the per-peer fetches (run one after another), the
	// merge and the input-log replay; what remains of it is the restore.
	var fetchS, mergeS, replayS, restoreS, failed, replayed float64
	for _, rec := range child(a.Span, "recover") {
		restoreS += rec.dur()
		for _, s := range inTrace {
			if s.Parent != rec.Span {
				continue
			}
			switch s.Phase {
			case "fetch":
				fetchS += s.dur()
				restoreS -= s.dur()
				if e, _ := s.attr("err"); e != "" {
					failed++
				}
			case "merge":
				mergeS += s.dur()
				restoreS -= s.dur()
			case "replay":
				replayS += s.dur()
				restoreS -= s.dur()
				_, n := s.attr("tuples")
				replayed += float64(n)
			}
		}
	}
	t.add("cluster.fetch_ms", fetchS*1e3)
	t.add("cluster.fetch_failed", failed)
	t.add("cluster.merge_ms", mergeS*1e3)
	t.add("stream.restore_ms", restoreS*1e3)
	t.add("stream.replay_ms", replayS*1e3)
	t.add("stream.replay_tuples", replayed)
}

// layerMetrics reduces the traced rounds to the per-layer metrics.
func (b *bench) layerMetrics(rounds []*roundResult, attempted, failed int64, p99 float64) map[string]metric {
	samples := map[string][]float64{"latency_p99_ms": {p99}}
	for _, r := range rounds {
		for k, v := range r.layers {
			samples[k] = append(samples[k], v...)
		}
	}
	for k, v := range b.inprocLayers(rounds) {
		samples[k] = append(samples[k], v)
	}
	samples["fail_ratio"] = []float64{float64(failed) / float64(attempted)}
	out := map[string]metric{}
	for _, l := range perLayer {
		out[l.name] = metric{median(samples[l.name]), l.unit}
	}
	return out
}

// goSourceDigest hashes the checkout's Go sources and module files.
func goSourceDigest(root string) string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
