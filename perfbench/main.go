// Command perfbench is the repository's benchmark: it runs one
// four-component pipeline on real sr3node processes and reports
// end-to-end and per-layer metrics for a workload.
//
//	bash perfbench/run.sh --workload steady --seed 1 --seconds 8 --trace 0
//
// perfbench hosts node1 itself (it joins through sr3.StartNode, as the
// seed) because the generator and the sink must share a clock with the
// measuring code; node2..node4 are benchnode daemons launched through
// sr3.NewPlayground. Apart from those two entry points it uses
// only the nodes' HTTP surfaces (/healthz, /debug/sr3, /metrics,
// /debug/sr3/trace) and the seed's membership view.
//
// Every run checks exactly-once output and prints, as its last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, read from metric scrapes, the seed's recovery
// traces, /proc, and in-process timings of the layers the cluster calls.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one set of inputs; see BENCHMARK.json for why each exists.
type workload struct {
	name      string
	keys      int64 // K: distinct keys, which sets count's state size
	saveEvery int
	burst     int64   // tuples in each round's unpaced throughput burst
	pacedSec  float64 // seconds of each round's paced window
	cycles    []int   // kill cycles in each round; one round per entry
	// cycleLatency reads the latency metrics from the kill cycles
	// instead of the fault-free paced window.
	cycleLatency bool
}

// workloadFor sizes a workload's measured phases so that one run
// measures for about `seconds` seconds. Every run sets the cluster up at
// least twice; per-round figures are reduced by their median over rounds,
// so one unlucky cluster lifetime does not move a run's result, and
// latency percentiles are taken over the samples of all rounds.
func workloadFor(name string, seconds int) (workload, error) {
	s := float64(seconds)
	switch name {
	case "steady":
		return workload{name: name, keys: 1 << 10, saveEvery: 4096,
			burst: int64(300 * s), pacedSec: 0.8 * s, cycles: []int{2, 2, 2, 1}}, nil
	case "failover":
		n := max(2, seconds/4)
		return workload{name: name, keys: 1 << 16, saveEvery: 4096,
			burst: int64(600 * s), pacedSec: 0.2 * s, cycles: []int{n, n}, cycleLatency: true}, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (steady, failover)", name)
}

type bench struct {
	w       workload
	seed    int64
	trace   bool
	root    string
	nodeBin string
	work    string
	h       *harness
	peaks   map[string]int64
}

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	var (
		name    = flag.String("workload", "", "steady or failover")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 8, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics instead of end-to-end ones")
		root    = flag.String("root", ".", "checkout root")
		nodeBin = flag.String("node-bin", "", "benchnode binary")
		work    = flag.String("work", ".bench_build/runs", "directory for node logs")
	)
	flag.Parse()
	w, err := workloadFor(*name, *seconds)
	if err != nil || *nodeBin == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench:", err, "(usage: perfbench --workload W --seed N --seconds S --trace 0|1 -node-bin BIN)")
		return 2
	}
	b := &bench{
		w: w, seed: *seed, trace: *trace == 1, root: *root, nodeBin: *nodeBin,
		work: filepath.Join(*work, fmt.Sprintf("%d", os.Getpid())), h: &harness{},
		peaks: map[string]int64{},
	}

	// Every exit path stops the nodes: the normal one below, a signal, the
	// watchdog, and a panic on this goroutine. A panic elsewhere kills
	// the process; the daemons then see their parent gone and exit.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sigs
		b.h.emergency(fmt.Sprintf("signal %v", s))
		os.Exit(130)
	}()
	watchdog := time.AfterFunc(170*time.Second, func() {
		b.h.emergency("run exceeded 170s")
		os.Exit(3)
	})
	defer watchdog.Stop()
	defer func() {
		if r := recover(); r != nil {
			b.h.emergency(fmt.Sprintf("panic: %v", r))
			code = 2
		}
	}()

	if err := checkerSelfTest(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := b.run()
	if left := killChildren(); len(left) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d node processes outlived their round: %v\n", len(left), left)
		if err == nil {
			err = fmt.Errorf("node processes outlived the run")
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Node logs stay under the work directory for a run that found a
	// problem; a clean run leaves nothing behind.
	if out.result.Correct && len(out.problems) == 0 {
		_ = os.RemoveAll(b.work)
	}
	env, _ := json.Marshal(map[string]any{"env": out.env})
	fmt.Println(string(env))
	line, _ := json.Marshal(out.result)
	fmt.Println(string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type output struct {
	result   result
	env      map[string]any
	problems []string
}

// run executes the workload's rounds and reduces them to the result.
func (b *bench) run() (*output, error) {
	var rounds []*roundResult
	for i := range b.w.cycles {
		r := b.round(i)
		rounds = append(rounds, r)
		if r.failed > 0 {
			break // the run is incorrect already; do not spend the watchdog's time
		}
	}
	return b.reduce(rounds)
}

// reduce turns the rounds' measurements into the run's result. A round
// whose burst did not complete has no throughput and adds none to the
// median.
func (b *bench) reduce(rounds []*roundResult) (*output, error) {
	var attempted, failed, redelivered int64
	var problems []string
	var setups, tps, rss []float64
	var lat []float64
	var mttr, recov []float64
	started := 0
	for _, r := range rounds {
		attempted += r.attempted
		failed += r.failed
		redelivered += r.redelivered
		problems = append(problems, r.problems...)
		if r.setupS == 0 {
			continue
		}
		started++
		setups = append(setups, r.setupS)
		if r.throughput > 0 {
			tps = append(tps, r.throughput)
		}
		rss = append(rss, float64(r.peakRSSKB)/1024)
		for _, l := range r.latNs {
			lat = append(lat, float64(l)/1e6)
		}
		for _, c := range r.cycles {
			if c.ok {
				mttr = append(mttr, c.mttrS)
				recov = append(recov, c.recoverS)
			}
		}
	}
	if started == 0 {
		return nil, fmt.Errorf("no round started")
	}
	e2e := map[string]metric{
		"setup_s":        {median(setups), "s"},
		"throughput_tps": {median(tps), "results/s"},
		"latency_p50_ms": {percentile(lat, 0.50), "ms"},
		"mttr_s":         {median(mttr), "s"},
		"recover_s":      {median(recov), "s"},
		"peak_rss_mb":    {median(rss), "MiB"},
	}
	// latency_p99_ms is measured in every run but is not an end-to-end
	// metric of BENCHMARK.json: on the machine the benchmark was built on
	// it followed the host's load from run to run (see README.md), so it
	// is reported in the environment record and, ungated, per layer.
	p99 := metric{percentile(lat, 0.99), "ms"}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: e2e}
	if b.trace {
		res.Metrics = b.layerMetrics(rounds, attempted, failed, p99.Value)
		for _, r := range rounds {
			if r.setupS > 0 && r.fillMin <= replayWindow {
				res.Correct = false
				fmt.Fprintf(os.Stderr, "perfbench: a relay edge carried only %.0f tuples before measuring\n", r.fillMin)
			}
		}
		if gap := res.Metrics["cluster.sum_gap_ms"].Value; gap < sumGapMinMs || gap > sumGapMaxMs {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: detect+adopt+resume differs from mttr_s by %.1f ms, outside [%.0f, %.0f] ms\n", gap, sumGapMinMs, sumGapMaxMs)
		}
	}
	measured := map[string]metric{}
	for k, m := range map[string]metric{"latency_p99_ms": p99} {
		if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
			measured[k] = m
		}
	}
	for k, m := range e2e {
		if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
			measured[k] = m
		}
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", k)
			res.Metrics[k] = metric{0, m.Unit}
		}
	}
	env := b.environment(rounds, problems, len(lat), len(mttr), redelivered)
	env["end_to_end"] = measured
	env["samples"] = map[string][]float64{
		"setup_s": setups, "throughput_tps": tps,
		"mttr_s": mttr, "recover_s": recov, "peak_rss_mb": rss,
	}
	return &output{result: res, env: env, problems: problems}, nil
}

// The additivity tolerance for cluster.sum_gap_ms: the detect span opens
// at the victim's last heartbeat, up to one heartbeat interval (plus
// delivery jitter) before the SIGKILL, so the parts may exceed mttr_s by
// up to two intervals and fall short of it only by timer granularity.
const (
	sumGapMinMs = -10.0
	sumGapMaxMs = float64(2 * heartbeat / time.Millisecond)
)

// environment is the record printed before every result.
func (b *bench) environment(rounds []*roundResult, problems []string, latSamples, cycles int, redelivered int64) map[string]any {
	var emitted int64
	for _, r := range rounds {
		if r.gen != nil {
			emitted += r.gen.emitted()
		}
	}
	return map[string]any{
		"workload": b.w.name, "seed": b.seed, "trace": b.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "source": sourceDigest(b.root),
		"daemon": map[string]any{
			"nodes": numNodes, "heartbeat": heartbeat.String(), "dead_after": deadAfter.String(),
			"repair": repair.String(), "replay_buffer": replayWindow, "replay_buffer_overridden": os.Getenv("SR3_REPLAY_BUFFER") != "",
		},
		"rate_tps": rate, "keys": b.w.keys, "save_every": b.w.saveEvery, "shards": shards, "replicas": replicas,
		"rounds": len(b.w.cycles), "fill_tuples": fillTuples, "burst_tuples": b.w.burst,
		"paced_s": b.w.pacedSec, "cycles_per_round": b.w.cycles,
		"latency_samples": latSamples, "cycles": cycles, "tuples_emitted": emitted,
		"redelivered_pairs":      redelivered,
		"exactly_once_condition": fmt.Sprintf("save_every %d << replay buffer %d: a recovered count re-reads its unsaved input from the upstream relay window", b.w.saveEvery, replayWindow),
		"problems":               problems,
	}
}

// sourceDigest names the code under test: the git commit when the
// checkout is a repository, otherwise a digest of its Go sources.
func sourceDigest(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		if id, ok := resolveRef(root, strings.TrimSpace(string(head))); ok {
			return "git:" + id
		}
	}
	return "src:" + goSourceDigest(root)
}

// resolveRef resolves HEAD's content to a commit id: a detached id as it
// is, a branch through its loose ref file or, after `git pack-refs`,
// through .git/packed-refs.
func resolveRef(root, head string) (string, bool) {
	ref, symbolic := strings.CutPrefix(head, "ref: ")
	if !symbolic {
		return head, head != ""
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id)), true
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "", false
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(strings.TrimSpace(line), " "); ok && name == ref {
			return id, true
		}
	}
	return "", false
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile is the nearest-rank q-quantile (NaN for no samples).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func toFloat(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
