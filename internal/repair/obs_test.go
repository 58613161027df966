package repair

import (
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ftrepair/internal/fd"
	"ftrepair/internal/obs"
)

// phasesOf collects the distinct phases of a trace's ended spans.
func phasesOf(tr *obs.Trace) map[obs.Phase]int {
	out := make(map[obs.Phase]int)
	for _, s := range tr.Summaries() {
		out[s.Phase]++
	}
	return out
}

// TestGreedySTraceSpans runs a traced single-FD greedy repair and checks
// the span taxonomy: one graph build, one greedy growth, one apply, all
// closed, and the whole thing exportable as Chrome-trace JSON.
func TestGreedySTraceSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rel := noisyPairRelation(t, rng, 120, 0.3)
	cfg := fd.DefaultDistConfig(rel)
	f := fd.MustParse(rel.Schema, "City->State")

	tr := obs.NewTrace("test")
	if _, err := GreedyS(rel, f, cfg, 0.3, Options{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("open spans after repair = %d, want 0", n)
	}
	got := phasesOf(tr)
	for _, p := range []obs.Phase{obs.PhaseGraphBuild, obs.PhaseGreedyGrow, obs.PhaseApply} {
		if got[p] == 0 {
			t.Fatalf("no %s span; phases = %v", p, got)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export invalid: %v", err)
	}
	if len(doc.TraceEvents) != len(tr.Summaries()) {
		t.Fatalf("events = %d, spans = %d", len(doc.TraceEvents), len(tr.Summaries()))
	}
}

// TestExactMTraceSpans runs a traced multi-FD exact repair over two
// overlapping FDs and expects expansion and target-search spans on top of
// the per-FD graph builds.
func TestExactMTraceSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rel := noisyTripleRelation(t, rng, 60, 0.3)
	cfg := fd.DefaultDistConfig(rel)
	set, err := fd.NewSet([]*fd.FD{
		fd.MustParse(rel.Schema, "City->State"),
		fd.MustParse(rel.Schema, "State->Country"),
	}, 0.3)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTrace("test")
	res, err := ExactM(rel, set, cfg, Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("open spans after repair = %d, want 0", n)
	}
	got := phasesOf(tr)
	if got[obs.PhaseGraphBuild] < 2 || got[obs.PhaseExpand] == 0 || got[obs.PhaseTargetSearch] == 0 {
		t.Fatalf("phases = %v, want >=2 graphbuild, >=1 expand, >=1 targetsearch", got)
	}
	if res.Stats["combinations"] == 0 {
		t.Fatalf("no combinations recorded: %v", res.Stats)
	}
}

// TestTraceClosesOnCancel fires the cancel mid-greedy-growth (via the
// test hook the determinism suite uses) and asserts the ErrCanceled
// partial leaves no dangling open spans.
func TestTraceClosesOnCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rel := noisyPairRelation(t, rng, 150, 0.35)
	cfg := fd.DefaultDistConfig(rel)
	f := fd.MustParse(rel.Schema, "City->State")

	cancel := make(chan struct{})
	fired := false
	greedyStepHook = func(n int) {
		if n >= 1 && !fired {
			fired = true
			close(cancel)
		}
	}
	defer func() { greedyStepHook = nil }()

	tr := obs.NewTrace("test")
	_, err := GreedyS(rel, f, cfg, 0.3, Options{Cancel: cancel, Trace: tr})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("open spans after canceled repair = %d, want 0", n)
	}
}

// TestExactSTraceClosesOnCancel covers the exact path: a pre-fired cancel
// aborts the expansion immediately and every span still closes.
func TestExactSTraceClosesOnCancel(t *testing.T) {
	rel, set, cfg := pathInstance(t, 60)
	cancel := make(chan struct{})
	close(cancel)
	tr := obs.NewTrace("test")
	_, err := ExactS(rel, set.FDs[0], cfg, set.Tau[0], Options{Cancel: cancel, Trace: tr})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("open spans after canceled repair = %d, want 0", n)
	}
}

// TestTraceDoesNotChangeOutput is the read-only guarantee: the same input
// repaired with and without a trace attached produces bit-identical
// relations, costs, and stats — up to the scheduling-dependent split of
// distance lookups into hits and misses when target search runs on
// several workers.
func TestTraceDoesNotChangeOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rel := noisyTripleRelation(t, rng, 80, 0.3)
	set, err := fd.NewSet([]*fd.FD{
		fd.MustParse(rel.Schema, "City->State"),
		fd.MustParse(rel.Schema, "State->Country"),
	}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	// run repairs once plainly and once traced, each with a fresh config: a
	// shared one would warm the distance cache and shift hit/miss stats for
	// reasons unrelated to tracing.
	run := func(t *testing.T) (plain, traced *Result) {
		t.Helper()
		plain, err := GreedyM(rel, set, fd.DefaultDistConfig(rel), Options{})
		if err != nil {
			t.Fatal(err)
		}
		traced, err = GreedyM(rel, set, fd.DefaultDistConfig(rel), Options{Trace: obs.NewTrace("t")})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.Repaired.Tuples, traced.Repaired.Tuples) {
			t.Fatal("tracing changed the repaired relation")
		}
		if plain.Cost != traced.Cost {
			t.Fatalf("tracing changed cost: %v != %v", plain.Cost, traced.Cost)
		}
		return plain, traced
	}
	t.Run("parallel", func(t *testing.T) {
		plain, traced := run(t)
		// Concurrent target-search workers race benignly on the shared
		// distance plane: which of two searches scoring the same pair
		// records the miss depends on scheduling. The number of lookups
		// does not, so each hit/miss pair must agree in its sum, and every
		// other stat exactly.
		want, got := maps.Clone(plain.Stats), maps.Clone(traced.Stats)
		for _, pair := range [][2]string{{"distCacheHits", "distCacheMisses"}, {"distPlaneHits", "distPlaneMisses"}} {
			if w, g := want[pair[0]]+want[pair[1]], got[pair[0]]+got[pair[1]]; w != g {
				t.Fatalf("tracing changed %s+%s: %d != %d", pair[0], pair[1], w, g)
			}
			for _, k := range pair {
				delete(want, k)
				delete(got, k)
			}
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("tracing changed stats: %v != %v", plain.Stats, traced.Stats)
		}
	})
	t.Run("GOMAXPROCS=1", func(t *testing.T) {
		// One P leaves target search sequential, so even the hit/miss
		// split is deterministic.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		plain, traced := run(t)
		if !reflect.DeepEqual(plain.Stats, traced.Stats) {
			t.Fatalf("tracing changed stats: %v != %v", plain.Stats, traced.Stats)
		}
	})
}

// TestMetricsFlowFromRepair checks the registry view: one greedy run must
// bump graph-build and set-size counters in obs.Default() (the Stats map
// is flushed by finish, the graph totals by vgraph.Build).
func TestMetricsFlowFromRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rel := noisyPairRelation(t, rng, 100, 0.3)
	cfg := fd.DefaultDistConfig(rel)
	f := fd.MustParse(rel.Schema, "City->State")

	builds := obs.Pipeline.GraphBuilds.Value()
	setSize := obs.Pipeline.GreedySetSize.Value()
	res, err := GreedyS(rel, f, cfg, 0.3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := obs.Pipeline.GraphBuilds.Value() - builds; d != 1 {
		t.Fatalf("graph-build counter delta = %d, want 1", d)
	}
	if d := int(obs.Pipeline.GreedySetSize.Value() - setSize); d != res.Stats["setSize"] {
		t.Fatalf("set-size counter delta = %d, want %d", d, res.Stats["setSize"])
	}
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ftrepair_phase_duration_seconds_bucket",
		`phase="greedygrow"`,
		"ftrepair_graph_edges_built_total",
		`ftrepair_repairs_total{algorithm="GreedyS"}`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}
