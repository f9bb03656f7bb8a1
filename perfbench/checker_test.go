package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckerSelfTest: the exactly-once rule counts a gap and an
// over-count as failures and lets a re-delivered identical pair pass.
func TestCheckerSelfTest(t *testing.T) {
	if err := checkerSelfTest(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedPhase: a round whose burst did not complete makes the run
// incorrect and adds no throughput to the median over rounds.
func TestFailedPhase(t *testing.T) {
	b := &bench{w: workload{name: "steady", cycles: []int{1, 1}}, root: "."}
	cy := []cycleResult{{ok: true, mttrS: 1.5, recoverS: 0.5}}
	ok := &roundResult{setupS: 1, throughput: 2000, latNs: []int64{1e6}, cycles: cy, peakRSSKB: 1024, attempted: 100}
	stalled := &roundResult{setupS: 1, peakRSSKB: 1024, attempted: 50, failed: 1, problems: []string{"burst: generator stalled"}}
	out, err := b.reduce([]*roundResult{ok, stalled})
	if err != nil {
		t.Fatal(err)
	}
	if out.result.Correct || out.result.Attempted != 150 || out.result.Failed != 1 || len(out.problems) != 1 {
		t.Fatalf("result %+v, problems %v: want incorrect, 150 attempted, 1 failed, 1 problem", out.result, out.problems)
	}
	if tps := out.result.Metrics["throughput_tps"].Value; tps != 2000 {
		t.Fatalf("throughput_tps = %v, want 2000 from the round that completed its burst", tps)
	}
}

// TestResolveRef finds a branch's commit in its loose ref file or, once
// refs are packed, in packed-refs.
func TestResolveRef(t *testing.T) {
	root := t.TempDir()
	git := filepath.Join(root, ".git")
	if err := os.MkdirAll(filepath.Join(git, "refs", "heads"), 0o755); err != nil {
		t.Fatal(err)
	}
	packed := "# pack-refs with: peeled fully-peeled sorted\n" +
		"1111111111111111111111111111111111111111 refs/heads/main\n" +
		"2222222222222222222222222222222222222222 refs/heads/other\n"
	if err := os.WriteFile(filepath.Join(git, "packed-refs"), []byte(packed), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(git, "refs", "heads", "other"), []byte("3333333333333333333333333333333333333333\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for head, want := range map[string]string{
		"ref: refs/heads/main":                     "1111111111111111111111111111111111111111",
		"ref: refs/heads/other":                    "3333333333333333333333333333333333333333",
		"4444444444444444444444444444444444444444": "4444444444444444444444444444444444444444",
	} {
		if got, ok := resolveRef(root, head); !ok || got != want {
			t.Errorf("resolveRef(%q) = %q, %v; want %q", head, got, ok, want)
		}
	}
	if got, ok := resolveRef(root, "ref: refs/heads/gone"); ok {
		t.Errorf("resolveRef of a missing branch = %q, want none", got)
	}
}

// TestQuantileDelta reads a quantile from the observations a histogram
// gained between two scrapes, summed over nodes.
func TestQuantileDelta(t *testing.T) {
	a, b := newScrape(), newScrape()
	a.add("h_bucket{node=\"n1\",le=\"0.001\"} 10\nh_bucket{node=\"n1\",le=\"+Inf\"} 10\n")
	b.add("h_bucket{node=\"n1\",le=\"0.001\"} 10\nh_bucket{node=\"n1\",le=\"0.002\"} 30\nh_bucket{node=\"n1\",le=\"+Inf\"} 30\n")
	b.add("h_bucket{node=\"n2\",le=\"0.002\"} 20\nh_bucket{node=\"n2\",le=\"+Inf\"} 20\n")
	// Gained: 40 observations in (1ms, 2ms].
	if q := quantileDelta(a, b, "h", 0.5); q < 0.0014 || q > 0.0016 {
		t.Fatalf("p50 = %v, want 1.5ms", q)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's per-layer list and the
// metrics a traced run prints in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var doc struct {
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, perfbench %d", len(doc.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		if got := doc.PerLayer[i]; got.Name != l.name || got.Unit != l.unit || got.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, perfbench has %+v", i, got, l)
		}
	}
}
