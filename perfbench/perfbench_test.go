package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// tiny shrinks every workload so the whole suite runs in seconds.
const tiny = 0.05

// runJSON runs the command and decodes its last output line.
func runJSON(t *testing.T, args ...string) result {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return res
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
			res := runJSON(t, "--workload", w.name, "--seed", "3", "--seconds", "0.01",
				"--scale", "0.05", "--trace", trace)
			if res.Attempted < 1 || res.Failed > res.Attempted {
				t.Errorf("%s trace=%s: attempted %d, failed %d", w.name, trace, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.name, trace, d.Name, m, d.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%s: metric %s = %v", w.name, trace, d.Name, m.Value)
				}
			}
		}
	}
}

// corruptLastRow replaces the first field of a CSV's last row with a value
// no input row carries.
func corruptLastRow(csv []byte) []byte {
	lines := bytes.Split(bytes.TrimRight(csv, "\n"), []byte("\n"))
	last := lines[len(lines)-1]
	if i := bytes.IndexByte(last, ','); i >= 0 {
		lines[len(lines)-1] = append([]byte("CORRUPTED"), last[i:]...)
	}
	return append(bytes.Join(lines, []byte("\n")), '\n')
}

func TestCorruptedOutputIsAFailure(t *testing.T) {
	for _, w := range workloads {
		name := w.name
		c := runConfig{workload: name, seed: 2, seconds: 0.01, scale: tiny}
		clean, err := w.run(c)
		if err != nil {
			t.Fatal(err)
		}
		if clean.failed != 0 {
			t.Fatalf("%s: %d of %d operations failed before corruption: %v", name, clean.failed, clean.attempted, clean.notes)
		}
		c.corrupt = corruptLastRow
		bad, err := w.run(c)
		if bad == nil {
			t.Fatalf("%s: corrupted run returned no report: %v", name, err)
		}
		if bad.failed == 0 {
			t.Errorf("%s: corrupted outputs passed the check (%d attempted)", name, bad.attempted)
		}
	}
}

func TestSameSeedSameQuality(t *testing.T) {
	for _, w := range workloads {
		c := runConfig{workload: w.name, seed: 5, seconds: 0.01, scale: tiny}
		a, err := w.run(c)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.run(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"precision", "recall", "repair_cost"} {
			if a.values[k] != b.values[k] {
				t.Errorf("%s: %s %v then %v with the same seed", w.name, k, a.values[k], b.values[k])
			}
		}
	}
}

func lookup(t *testing.T, name string) workload {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return workload{}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables in
// step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestSelfTimes(t *testing.T) {
	// job [0,100] wraps repair.call [10,90], which holds greedygrow
	// [20,40] and targetsearch [50,80] with a distance child [60,70].
	ivs := []interval{
		{"repair.call", 10, 90},
		{"repair.greedygrow", 20, 40},
		{"targettree.search", 50, 80},
		{"targettree.distance", 60, 70},
	}
	got := selfTimes(ivs, 0, 100)
	want := map[string]float64{
		"":                    20,
		"repair.call":         30,
		"repair.greedygrow":   20,
		"targettree.search":   20,
		"targettree.distance": 10,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%q] = %v, want %v", k, got[k], v)
		}
	}
	if u := unattributed(got); u != 50 {
		t.Errorf("unattributed = %v, want 50", u)
	}
}
