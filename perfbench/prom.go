package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// scrape is one Prometheus text exposition per node, folded together:
// series name (labels dropped) -> value summed over nodes, and histogram
// name -> each node's cumulative buckets.
type scrape struct {
	vals    map[string]float64
	buckets map[string][][]bucket
}

type bucket struct {
	le  float64 // upper bound, seconds (+Inf last)
	cum float64
}

func newScrape() *scrape {
	return &scrape{vals: map[string]float64{}, buckets: map[string][][]bucket{}}
}

// add folds one node's exposition into the scrape.
func (s *scrape) add(text string) {
	hist := map[string][]bucket{}
	defer func() {
		for name, bs := range hist {
			s.buckets[name] = append(s.buckets[name], bs)
		}
	}()
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series, labels := line[:sp], ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			series, labels = series[:i], series[i:]
		}
		if base, ok := strings.CutSuffix(series, "_bucket"); ok {
			le := math.Inf(1)
			if i := strings.Index(labels, `le="`); i >= 0 {
				raw := labels[i+4:]
				raw = raw[:strings.IndexByte(raw, '"')]
				if raw != "+Inf" {
					le, _ = strconv.ParseFloat(raw, 64)
				}
			}
			hist[base] = append(hist[base], bucket{le: le, cum: v})
			continue
		}
		s.vals[series] += v
	}
}

// cumAt is a histogram's cumulative count at bound le, summed over the
// nodes that export it (each node's buckets are cumulative on their own).
func (s *scrape) cumAt(name string, le float64) float64 {
	total := 0.0
	for _, bs := range s.buckets[name] {
		best := 0.0
		for _, b := range bs {
			if b.le <= le {
				best = b.cum
			}
		}
		total += best
	}
	return total
}

// quantileDelta is the q-quantile, in seconds, of the observations a
// histogram gained between scrapes a and b, interpolated linearly inside
// the bucket; NaN when it gained none.
func quantileDelta(a, b *scrape, name string, q float64) float64 {
	bounds := map[float64]bool{}
	for _, s := range []*scrape{a, b} {
		for _, bs := range s.buckets[name] {
			for _, bk := range bs {
				bounds[bk.le] = true
			}
		}
	}
	les := make([]float64, 0, len(bounds))
	for le := range bounds {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 {
		return math.NaN()
	}
	total := b.cumAt(name, math.Inf(1)) - a.cumAt(name, math.Inf(1))
	if total <= 0 {
		return math.NaN()
	}
	target := q * total
	lo, prevCum := 0.0, 0.0
	for _, le := range les {
		cum := b.cumAt(name, le) - a.cumAt(name, le)
		if cum >= target {
			if math.IsInf(le, 1) {
				return lo
			}
			if cum == prevCum {
				return le
			}
			return lo + (le-lo)*(target-prevCum)/(cum-prevCum)
		}
		lo, prevCum = le, cum
	}
	return lo
}

// procCPUTicks reads utime+stime (clock ticks) of a process.
func procCPUTicks(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, so
	// utime (14) and stime (15) are at offsets 11 and 12.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return u + st, nil
}

// clockTick is the kernel's USER_HZ, 100 on every Linux this runs on.
const clockTick = 100

// resetPeakRSS restarts this process's VmHWM from its current resident
// set (clear_refs value 5).
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, err = f.WriteString("5")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// peakRSSKB reads VmHWM (peak resident set) of a process in KiB.
func peakRSSKB(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// child is one live child process of perfbench.
type child struct {
	pid   int
	name  string // the -name flag of a node daemon ("" otherwise)
	state byte
}

// children lists perfbench's child processes from /proc, zombies
// included (state 'Z').
func children() []child {
	self := os.Getpid()
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	var out []child
	for _, path := range stats {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		s := string(raw)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) < 2 {
			continue
		}
		if ppid, _ := strconv.Atoi(f[1]); ppid != self {
			continue
		}
		pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(path)))
		c := child{pid: pid, state: f[0][0]}
		if cmd, err := os.ReadFile(filepath.Join(filepath.Dir(path), "cmdline")); err == nil {
			args := strings.Split(string(cmd), "\x00")
			for i := 0; i+1 < len(args); i++ {
				if args[i] == "-name" {
					c.name = args[i+1]
				}
			}
		}
		out = append(out, c)
	}
	return out
}

// nodePID returns the pid of the live node daemon with the given name
// (perfbench's own pid for node1, which it hosts).
func nodePID(name string) int {
	if name == seedName {
		return os.Getpid()
	}
	for _, c := range children() {
		if c.name == name && c.state != 'Z' {
			return c.pid
		}
	}
	return 0
}
