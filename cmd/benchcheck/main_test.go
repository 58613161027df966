package main

import (
	"math"
	"strings"
	"testing"
)

// benchOutput is real `go test -bench -benchmem -count 2` output shape:
// headers, GOMAXPROCS suffixes, -benchmem and b.ReportMetric columns, a
// bare name line, a single-core entry without a suffix, and trailers.
const benchOutput = `goos: linux
goarch: amd64
pkg: ftrepair/internal/repair
cpu: Intel(R) Xeon(R) Processor
BenchmarkGreedyGrowth/heap/n1250-2   	   12000	     90299 ns/op	       0 B/op	       0 allocs/op
BenchmarkGreedyGrowth/heap/n1250-2   	   12000	     91000 ns/op	       0 B/op	       0 allocs/op
BenchmarkExactCombos/n120fds4/w1-2   	       1	 892313324 ns/op	     20110 combos/s
BenchmarkExactCombos/n120fds4/w1-2   	       1	 900000000 ns/op	     20000 combos/s
PASS
ok  	ftrepair/internal/repair	1.464s
pkg: ftrepair/internal/incr
BenchmarkIngest/spot/n1250-2
BenchmarkIngest/spot/n1250-2   	      18	  14186862 ns/op	       180.0 max-shard-rows	         2.837 ms/batch	 4230640 B/op	   47651 allocs/op
BenchmarkSingleCore   	  100	  250 ns/op
PASS
`

func TestParse(t *testing.T) {
	s, err := parse(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]float64{
		"ftrepair/internal/repair.BenchmarkGreedyGrowth/heap/n1250": {90299, 91000},
		"ftrepair/internal/repair.BenchmarkExactCombos/n120fds4/w1": {892313324, 900000000},
		"ftrepair/internal/incr.BenchmarkIngest/spot/n1250":         {14186862},
		"ftrepair/internal/incr.BenchmarkSingleCore":                {250},
	}
	if len(s) != len(want) {
		t.Fatalf("parsed %d entries, want %d: %v", len(s), len(want), s)
	}
	for k, w := range want {
		got := s[k]
		if len(got) != len(w) {
			t.Fatalf("%s: %v, want %v", k, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("%s: %v, want %v", k, got, w)
			}
		}
	}
}

func TestParsePoolsSeparateRuns(t *testing.T) {
	run := "pkg: p\nBenchmarkX-4 \t 10\t 500 ns/op\n"
	s, err := parse(strings.NewReader(run + "PASS\n" + run + run))
	if err != nil {
		t.Fatal(err)
	}
	if got := s["p.BenchmarkX"]; len(got) != 3 {
		t.Fatalf("runs not pooled: %v", s)
	}
}

func TestStripProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX-2":         "BenchmarkX",
		"BenchmarkX/w1-16":     "BenchmarkX/w1",
		"BenchmarkX":           "BenchmarkX",
		"BenchmarkX/a-b":       "BenchmarkX/a-b",
		"BenchmarkX/trailing-": "BenchmarkX/trailing-",
	} {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("single median = %v, want 7", got)
	}
	// Quartiles of 1..5 are 2 and 4, so the IQR is 2 around a median of 3.
	if got := spread([]float64{5, 4, 3, 2, 1}); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("spread = %v, want 2/3", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("median reordered its input")
	}
}

func run(base, head samples) (bool, string) {
	var sb strings.Builder
	failed := compare(&sb, base, head, 1.25)
	return failed, sb.String()
}

func TestCompareThreshold(t *testing.T) {
	base := samples{"p.BenchmarkA": {1000, 1000, 1000}}
	// 1.25x exactly is within the limit; the median ignores one outlier.
	if failed, out := run(base, samples{"p.BenchmarkA": {1250, 1250, 9000}}); failed {
		t.Fatalf("1.25x median failed:\n%s", out)
	}
	failed, out := run(base, samples{"p.BenchmarkA": {1300, 1300, 900}})
	if !failed || !strings.Contains(out, "REGRESSED 1.30x") {
		t.Fatalf("1.30x median passed:\n%s", out)
	}
	// Getting faster never fails.
	if failed, out := run(base, samples{"p.BenchmarkA": {100, 100, 100}}); failed {
		t.Fatalf("speedup failed:\n%s", out)
	}
}

func TestCompareFloor(t *testing.T) {
	base := samples{"p.BenchmarkFast": {50}, "p.BenchmarkSlow": {1000}}
	head := samples{"p.BenchmarkFast": {99}, "p.BenchmarkSlow": {1000}}
	failed, out := run(base, head)
	if failed || !strings.Contains(out, "floor (skipped)") {
		t.Fatalf("sub-100ns regression gated:\n%s", out)
	}
	// A base above the floor with a head below it is skipped too.
	if failed, out := run(samples{"p.BenchmarkA": {150}, "p.BenchmarkB": {1000}},
		samples{"p.BenchmarkA": {90}, "p.BenchmarkB": {1000}}); failed {
		t.Fatalf("entry below the floor on one side failed:\n%s", out)
	}
}

func TestCompareOneSided(t *testing.T) {
	base := samples{"p.BenchmarkOld": {1000}, "p.BenchmarkKept": {1000}}
	head := samples{"p.BenchmarkNew": {99999}, "p.BenchmarkKept": {1000}}
	failed, out := run(base, head)
	if failed {
		t.Fatalf("one-sided entries failed the gate:\n%s", out)
	}
	if !strings.Contains(out, "BenchmarkOld") || !strings.Contains(out, "only in base") ||
		!strings.Contains(out, "BenchmarkNew") || !strings.Contains(out, "only in head") {
		t.Fatalf("one-sided entries not reported:\n%s", out)
	}
}

func TestCompareNothingSharedFails(t *testing.T) {
	// Every entry renamed, or a pattern that matched nothing on one side.
	if failed, out := run(samples{"p.BenchmarkOld": {1000}}, samples{"p.BenchmarkNew": {1000}}); !failed {
		t.Fatalf("zero shared entries passed:\n%s", out)
	}
	if failed, _ := run(samples{"p.BenchmarkA": {1000}}, samples{}); !failed {
		t.Fatal("empty head passed")
	}
	if failed, _ := run(samples{}, samples{}); !failed {
		t.Fatal("two empty sides passed")
	}
	// Shared entries that all fall under the floor compare nothing either.
	if failed, _ := run(samples{"p.BenchmarkA": {10}}, samples{"p.BenchmarkA": {10}}); !failed {
		t.Fatal("only sub-floor shared entries passed")
	}
}

func TestParseRejectsBadValue(t *testing.T) {
	if _, err := parse(strings.NewReader("BenchmarkX-2 \t 10\t abc ns/op\n")); err == nil {
		t.Fatal("malformed ns/op accepted")
	}
}
