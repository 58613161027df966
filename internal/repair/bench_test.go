package repair

import (
	"fmt"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
	"ftrepair/internal/obs"
	"ftrepair/internal/vgraph"
)

// The repair-phase benchmark families, on generated HOSP instances:
// Algorithm-2 growth (naive rescan vs indexed heap) at three sizes, joint
// growth, exact branch-and-bound combination throughput, and multi-FD plan
// evaluation. They live in package repair so they time greedySet,
// greedySetNaive and the planner directly. `make bench-check` gates them
// (merge-base against HEAD on one runner); a quick local run is
//
//	go test -run '^$' -bench 'GreedyGrowth|JointGrowth|ExactCombos|PlanCosts' ./internal/repair/

// benchInstance mirrors eval.Prepare (which package repair cannot import):
// HOSP at seed 7 restricted to the first nfds FDs (0 = all), dirtied at
// rate, with the default run τ and weights.
func benchInstance(tb testing.TB, n, nfds int, rate float64) (*dataset.Relation, *fd.Set, *fd.DistConfig) {
	tb.Helper()
	clean := gen.HOSP{Seed: 7}.Generate(n)
	fds := gen.HOSPFDs(clean.Schema)
	if nfds > 0 {
		fds = fds[:nfds]
	}
	dirty, _ := gen.Inject(clean, fds, rate, 8)
	set, err := fd.NewSet(fds, fd.RunTau)
	if err != nil {
		tb.Fatal(err)
	}
	cfg, err := fd.NewDistConfig(dirty, fd.RunWL, fd.RunWR)
	if err != nil {
		tb.Fatal(err)
	}
	return dirty, set, cfg
}

// greedyBenchGraph builds the single-FD violation graph growth is timed
// on. ErrorRate 0.1 (vs the pipeline default 0.04) doubles the graph:
// growth over dense graphs is the regime the heap exists for.
func greedyBenchGraph(tb testing.TB, n int) *vgraph.Graph {
	tb.Helper()
	rel, set, cfg := benchInstance(tb, n, 1, 0.1)
	return vgraph.Build(rel, set.FDs[0], cfg, set.Tau[0], vgraph.Options{})
}

func BenchmarkGreedyGrowth(b *testing.B) {
	for _, n := range []int{1250, 2500, 5000} {
		g := greedyBenchGraph(b, n)
		for _, mode := range []string{"naive", "heap"} {
			grow := func(dst []int) []int { return growInto(g, nil, dst) }
			if mode == "naive" {
				grow = func([]int) []int { return greedySetNaive(g, nil) }
			}
			b.Run(fmt.Sprintf("%s/n%d", mode, n), func(b *testing.B) {
				// One warm-up run primes the pooled grower and the result
				// buffer, so -benchmem reports the steady state: 0 allocs/op
				// on the heap path (the naive reference allocates per run).
				set := grow(nil)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					set = grow(set)
				}
			})
		}
	}
}

// TestGreedyGrowthSteadyStateAllocs is the alloc-regression gate the CI
// smoke runs: after one warm-up growth primes the sync.Pool'd grower and
// the caller's result buffer, further heap-path rounds must not allocate
// at all. A nonzero count means per-round scratch leaked out of the pools
// (a closure, a fresh slice, a map) and the zero-alloc property regressed.
func TestGreedyGrowthSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and drops pool items; counts are meaningless")
	}
	g := greedyBenchGraph(t, 1000)
	set := growInto(g, nil, nil) // warm-up: pools + dst
	allocs := testing.AllocsPerRun(10, func() {
		set = growInto(g, nil, set)
	})
	if allocs > 0 {
		t.Fatalf("steady-state greedy growth allocates %.1f allocs/run, want 0", allocs)
	}
	if len(set) == 0 {
		t.Fatal("greedy growth returned an empty set on a violating instance")
	}
}

// BenchmarkObsOverhead guards the observability budget: "instrumented"
// wraps the same greedy growth in exactly the per-run obs work a traced
// repair performs (trace + span + attrs + registry flush) and must stay
// within 2% of the bare loop. The span/flush cost is constant per phase
// while the growth is superlinear in the graph, so headroom grows with N.
func BenchmarkObsOverhead(b *testing.B) {
	g := greedyBenchGraph(b, 1000)
	b.Run("noop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			greedySet(g, nil)
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := obs.NewTrace("bench")
			sp := obs.Begin(tr, obs.PhaseGreedyGrow)
			set := greedySet(g, nil)
			sp.Add("setSize", int64(len(set)))
			sp.End()
			obs.Pipeline.GreedySetSize.AddInt(len(set))
		}
	})
}

func BenchmarkJointGrowth(b *testing.B) {
	rel, set, cfg := benchInstance(b, 600, 2, 0.1)
	graphs := make([]*vgraph.Graph, len(set.FDs))
	for i, f := range set.FDs {
		graphs[i] = vgraph.Build(rel, f, cfg, set.Tau[i], vgraph.Options{})
	}
	for _, mode := range []string{"naive", "heap"} {
		grow := jointGreedySets
		if mode == "naive" {
			grow = jointGreedySetsNaive
		}
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				grow(rel, graphs, nil)
			}
		})
	}
}

// BenchmarkExactCombos times ExactM's branch and bound over MIS
// combinations. The instance is fixed small (the combination budget, not
// N, bounds exact repair): 120 HOSP rows under 4 FDs enumerate ~18k
// combinations per run.
func BenchmarkExactCombos(b *testing.B) {
	rel, set, cfg := benchInstance(b, 120, 4, 0.03)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("n120fds4/w%d", workers), func(b *testing.B) {
			combos := 0
			for i := 0; i < b.N; i++ {
				res, err := ExactM(rel, set, cfg, Options{Parallel: workers})
				if err != nil {
					b.Fatal(err)
				}
				combos += res.Stats.Combinations
			}
			b.ReportMetric(float64(combos)/b.Elapsed().Seconds(), "combos/s")
		})
	}
}

// BenchmarkPlanCosts times repair-plan evaluation — one target-tree build
// plus a nearest-target search per repairing tuple group — over the
// largest multi-FD component of HOSP at N=5000. Graphs, greedy sets and
// grouping are prepared once; each iteration re-evaluates the plan only.
func BenchmarkPlanCosts(b *testing.B) {
	const n = 5000
	rel, set, cfg := benchInstance(b, n, 0, 0.04)
	var comp []int
	for _, c := range set.Components() {
		if len(c) >= 2 && len(c) > len(comp) {
			comp = c
		}
	}
	if comp == nil {
		b.Fatal("no multi-FD component to evaluate plans on")
	}
	sub := set.Subset(comp)
	graphs := buildGraphs(rel, sub, cfg, Options{})
	sets := make([][]int, len(graphs))
	for i, g := range graphs {
		sets[i] = greedySet(g, nil)
	}
	groups := groupTuples(rel, unionAttrs(sub.FDs))
	p := newPlanner(groups, graphs, cfg, false, nil, 0)
	chosen, levels := chosenBits(graphs, sets), levelsFor(graphs, sets)
	repairing := 0
	for gi := range groups {
		if p.needsRepair(gi, chosen) {
			repairing++
		}
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("n%d/w%d", n, workers), func(b *testing.B) {
			p.workers = workers
			for i := 0; i < b.N; i++ {
				if _, _, _, ok := p.costs(chosen, levels, nil); !ok {
					b.Fatal("plan evaluation failed (empty join?)")
				}
			}
			b.ReportMetric(float64(repairing*b.N)/b.Elapsed().Seconds(), "groups/s")
		})
	}
}
