package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	c.AddInt(3)
	c.AddInt(-5) // ignored
	if got := c.Value(); got != 8 {
		t.Fatalf("counter = %d, want 8", got)
	}
	g := r.Gauge("g", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	// Get-or-create returns the same handle.
	if r.Counter("c_total", "help") != c {
		t.Fatal("second Counter call returned a different handle")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "help", []float64{0.1, 1})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 3} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 5.65; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// Buckets: le=0.1 holds {0.05, 0.1}, le=1 adds {0.5}, +Inf adds {2, 3}.
	want := []uint64{2, 1, 2}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d", i, got, want[i])
		}
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("m", "help")
}

// TestConcurrentUpdates hammers one counter, gauge, and histogram from many
// goroutines; meaningful under -race, and the totals must be exact.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Get-or-create from every goroutine too: the registry path
			// itself must be race-clean, not just the handles.
			c := r.Counter("hits_total", "help")
			g := r.Gauge("load", "help")
			h := r.Histogram("lat_seconds", "help", DurationBuckets())
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.002)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total", "help").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("load", "help").Value(); got != workers*perWorker {
		t.Fatalf("gauge = %v, want %d", got, workers*perWorker)
	}
	h := r.Histogram("lat_seconds", "help", DurationBuckets())
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
}

// TestWritePrometheusGolden pins the exposition format byte-for-byte on a
// fresh registry: sorted families, sorted series, cumulative buckets,
// _sum/_count, escaping.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "registered first, rendered last").Add(7)
	r.Counter("aa_total", "labeled counter",
		Label{Key: "algorithm", Value: "exact-s"}).Add(3)
	r.Counter("aa_total", "labeled counter",
		Label{Key: "algorithm", Value: `quo"te`}).Inc()
	r.Gauge("mid_gauge", "a gauge").Set(1.5)
	h := r.Histogram("dur_seconds", "a histogram", []float64{0.1, 1},
		Label{Key: "phase", Value: "apply"})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_total labeled counter
# TYPE aa_total counter
aa_total{algorithm="exact-s"} 3
aa_total{algorithm="quo\"te"} 1
# HELP dur_seconds a histogram
# TYPE dur_seconds histogram
dur_seconds_bucket{le="0.1",phase="apply"} 1
dur_seconds_bucket{le="1",phase="apply"} 2
dur_seconds_bucket{le="+Inf",phase="apply"} 3
dur_seconds_sum{phase="apply"} 3.55
dur_seconds_count{phase="apply"} 3
# HELP mid_gauge a gauge
# TYPE mid_gauge gauge
mid_gauge 1.5
# HELP zz_total registered first, rendered last
# TYPE zz_total counter
zz_total 7
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "help").Add(2)
	h := r.Histogram("h_seconds", "help", []float64{1})
	h.Observe(0.5)
	h.Observe(2)

	snap := r.Snapshot()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("snapshot must be JSON-marshalable: %v", err)
	}
	var back []MetricSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("families = %d, want 2", len(back))
	}
	if back[0].Name != "c_total" || back[0].Series[0].Value == nil || *back[0].Series[0].Value != 2 {
		t.Fatalf("counter snapshot wrong: %+v", back[0])
	}
	hs := back[1].Series[0]
	if hs.Count != 2 || hs.Sum != 2.5 {
		t.Fatalf("histogram snapshot wrong: %+v", hs)
	}
	if len(hs.Buckets) != 2 || !hs.Buckets[1].Inf || hs.Buckets[1].Count != 2 {
		t.Fatalf("buckets wrong: %+v", hs.Buckets)
	}
}
