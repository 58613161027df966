// Command benchcheck is the comparator of the same-runner A/B benchmark
// gate (`make bench-check`). It reads two files of standard `go test
// -bench` output — the base commit's runs and HEAD's, each benchmark
// repeated over several interleaved runs on one machine — takes each
// entry's median ns/op per side, prints both sides' quartile spread, and
// fails when HEAD's median exceeds the base median by more than the
// threshold.
//
// Usage:
//
//	benchcheck [-threshold 1.25] base.txt head.txt
//
// Entries are keyed by package and benchmark name with the -GOMAXPROCS
// suffix stripped, so `-count` repeats and separate runs pool into one
// sample. Entries present on only one side are reported but never fail
// (benchmark families grow and get renamed), and entries under 100 ns/op
// on either side are skipped: at that scale timer noise dwarfs real
// regressions. The check also fails when no entry is compared at all — a
// rename, a pattern that matches nothing or a partial build must not pass
// vacuously.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// minNsPerOp is the floor below which entries are too fast to compare
// reliably on shared runners.
const minNsPerOp = 100.0

// samples maps an entry key ("pkg.BenchmarkName/sub") to its ns/op values.
type samples map[string][]float64

// parse reads `go test -bench` output. A "pkg:" header line sets the
// package that keys the benchmark lines after it; every benchmark result
// line contributes its ns/op value, whatever other columns (-benchmem,
// b.ReportMetric) it carries.
func parse(r io.Reader) (samples, error) {
	out := samples{}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue // a bare name line, e.g. before a benchmark's log output
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue
		}
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad ns/op value in %q: %w", line, err)
			}
			key := stripProcs(fields[0])
			if pkg != "" {
				key = pkg + "." + key
			}
			out[key] = append(out[key], v)
			break
		}
	}
	return out, sc.Err()
}

// stripProcs removes the -GOMAXPROCS suffix `go test` appends to names.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs must be non-empty.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the interquartile range as a fraction of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m <= 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// compare writes one verdict line per entry and reports whether the gate
// fails: a compared entry regressed beyond limit, or nothing was compared.
func compare(w io.Writer, base, head samples, limit float64) (failed bool) {
	keys := make([]string, 0, len(base)+len(head))
	for k := range base {
		keys = append(keys, k)
	}
	for k := range head {
		if _, ok := base[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	compared := 0
	for _, k := range keys {
		b, h := base[k], head[k]
		switch {
		case len(h) == 0:
			fmt.Fprintf(w, "  %-72s only in base (skipped)\n", k)
			continue
		case len(b) == 0:
			fmt.Fprintf(w, "  %-72s only in head (skipped)\n", k)
			continue
		}
		bm, hm := median(b), median(h)
		sides := fmt.Sprintf("%14.0f ±%3.0f%% (n=%d) -> %14.0f ±%3.0f%% (n=%d) ns/op",
			bm, 100*spread(b), len(b), hm, 100*spread(h), len(h))
		switch {
		case bm < minNsPerOp || hm < minNsPerOp:
			fmt.Fprintf(w, "  %-72s %s  below %v ns floor (skipped)\n", k, sides, minNsPerOp)
		case hm > bm*limit:
			fmt.Fprintf(w, "  %-72s %s  REGRESSED %.2fx (limit %.2fx)\n", k, sides, hm/bm, limit)
			compared++
			failed = true
		default:
			fmt.Fprintf(w, "  %-72s %s  ok %.2fx\n", k, sides, hm/bm)
			compared++
		}
	}
	if compared == 0 {
		fmt.Fprintln(w, "benchcheck: no entry compared (no shared benchmark above the floor)")
		return true
	}
	return failed
}

func load(path string) (samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func main() {
	threshold := flag.Float64("threshold", 1.25, "fail when the head median ns/op exceeds the base median by this ratio")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck [-threshold 1.25] base.txt head.txt")
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	head, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("%s (base) vs %s (head), median ±IQR/median:\n", flag.Arg(0), flag.Arg(1))
	if compare(os.Stdout, base, head, *threshold) {
		fmt.Println("benchcheck: FAIL")
		os.Exit(1)
	}
	fmt.Println("benchcheck: ok")
}
