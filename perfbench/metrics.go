package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric. The same tables are written into
// BENCHMARK.json; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd lists the metrics a user of ftrepair or repaird sees. Every
// workload reports every one of them in an untraced run; see NOTES.md in
// this directory for what each means on the batch and streaming paths.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"rows_per_s", "1/s", "higher", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"latency_ms_p75", "ms", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.2},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"precision", "ratio", "higher", 0.1},
	{"recall", "ratio", "higher", 0.1},
	{"changed_per_error", "ratio", "lower", 0.1},
	{"repair_cost", "cost", "lower", 0.1},
}

// perLayer lists the metrics of single layers, named after this
// repository's packages. A traced run reports every one of them; layers a
// workload does not run read zero.
var perLayer = []metricDef{
	{"dataset.read_ms", "ms", "lower", 0},
	{"dataset.write_ms", "ms", "lower", 0},
	{"profile.retype_ms", "ms", "lower", 0},
	{"profile.mistyped_cols", "count", "lower", 0},
	{"fd.compile_ms", "ms", "lower", 0},
	{"fd.distcache_hits", "count", "higher", 0},
	{"fd.distcache_misses", "count", "lower", 0},
	{"fd.distplane_hits", "count", "higher", 0},
	{"fd.distplane_misses", "count", "lower", 0},
	{"vgraph.graphbuild_ms", "ms", "lower", 0},
	{"vgraph.builds", "count", "lower", 0},
	{"vgraph.edges", "count", "lower", 0},
	{"repair.call_ms", "ms", "lower", 0},
	{"repair.greedygrow_ms", "ms", "lower", 0},
	{"repair.apply_ms", "ms", "lower", 0},
	{"repair.verify_ms", "ms", "lower", 0},
	{"repair.greedy_set_vertices", "count", "lower", 0},
	{"repair.join_fallbacks", "count", "lower", 0},
	{"repair.residual_violations", "count", "lower", 0},
	{"targettree.search_ms", "ms", "lower", 0},
	{"targettree.distance_ms", "ms", "lower", 0},
	{"targettree.nodes_visited", "count", "lower", 0},
	{"ledger.events", "count", "lower", 0},
	{"ledger.bytes", "bytes", "lower", 0},
	{"ledger.write_ms", "ms", "lower", 0},
	{"incr.flush_ms_p50", "ms", "lower", 0},
	{"incr.shards_touched", "count", "lower", 0},
	{"incr.max_shard_rows", "count", "lower", 0},
	{"incr.rows_rewritten", "count", "lower", 0},
	{"incr.shardselect_ms", "ms", "lower", 0},
	{"incr.increpair_ms", "ms", "lower", 0},
	{"server.overhead_ms_p50", "ms", "lower", 0},
	{"trace.unattributed_ms", "ms", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// maxUnattributed is the traced run's own check: the named layers must
// account for all but this share of the traced wall time.
const maxUnattributed = 0.15

// report is what one workload run measured.
type report struct {
	attempted, failed int
	// values holds every metric of the run's kind (end-to-end or
	// per-layer); samples the sample count behind each timing.
	values  map[string]float64
	samples map[string]int
	// checkErr is the traced run's own check (unattributed share).
	checkErr error
	// notes are human-readable lines printed ahead of the result.
	notes []string
}

func newReport() *report {
	return &report{values: make(map[string]float64), samples: make(map[string]int)}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation with its reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		r.notef("FAILED: "+format, args...)
	}
}

// setTiming stores the median of samples under name, with its count.
func (r *report) setTiming(name string, samples []float64) {
	r.values[name] = quantile(samples, 0.5)
	r.samples[name] = len(samples)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// totalAlloc reads the cumulative heap bytes allocated by the process.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB,
// falling back to the Go runtime's total obtained memory off Linux.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / 1e6
}

// passes runs op over instances 0..k-1, then repeats whole passes while
// another pass as long as the last one still fits in budget.
func passes(budget time.Duration, k int, op func(pass, i int) error) error {
	start := time.Now()
	var last time.Duration
	for pass := 0; pass == 0 || time.Since(start)+last <= budget; pass++ {
		t := time.Now()
		for i := 0; i < k; i++ {
			if err := op(pass, i); err != nil {
				return err
			}
		}
		last = time.Since(t)
	}
	return nil
}

// upTo runs op for i = 0, 1, ... k-1 while another operation as long as
// the last one still fits in budget, and at least once.
func upTo(budget time.Duration, k int, op func(i int) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; i < k && (i == 0 || time.Since(start)+last <= budget); i++ {
		t := time.Now()
		if err := op(i); err != nil {
			return err
		}
		last = time.Since(t)
	}
	return nil
}
