package repair_test

import (
	"fmt"
	"testing"

	"ftrepair/internal/eval"
	"ftrepair/internal/obs"
	"ftrepair/internal/repair"
	"ftrepair/internal/vgraph"
)

// The Go benchmarks cover the repair-phase hot paths for quick local runs
// and the CI -benchtime=1x smoke; the calibrated measurements live in the
// repairbench experiment (BENCH_repair.json).

func greedyBenchGraph(b *testing.B) *vgraph.Graph {
	b.Helper()
	inst, err := eval.Prepare(eval.Setup{Workload: "hosp", N: 1000, FDs: 1, ErrorRate: 0.1, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	f, tau := inst.Set.FDs[0], inst.Set.Tau[0]
	return vgraph.Build(inst.Dirty, f, inst.Cfg, tau, vgraph.Options{})
}

func BenchmarkGreedyGrowth(b *testing.B) {
	g := greedyBenchGraph(b)
	for _, mode := range []string{"naive", "heap"} {
		b.Run(mode, func(b *testing.B) {
			// One warm-up run primes the pooled grower and the result buffer,
			// so -benchmem reports the steady state: 0 allocs/op on the heap
			// path (the naive reference allocates per run by design).
			set := repair.GrowGreedyInto(g, mode == "naive", nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set = repair.GrowGreedyInto(g, mode == "naive", set)
			}
		})
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
	inst, err := eval.Prepare(eval.Setup{Workload: "hosp", N: 1000, FDs: 1, ErrorRate: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	f, tau := inst.Set.FDs[0], inst.Set.Tau[0]
	g := vgraph.Build(inst.Dirty, f, inst.Cfg, tau, vgraph.Options{})
	set := repair.GrowGreedyInto(g, false, nil) // warm-up: pools + dst
	allocs := testing.AllocsPerRun(10, func() {
		set = repair.GrowGreedyInto(g, false, set)
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
	g := greedyBenchGraph(b)
	b.Run("noop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			repair.GrowGreedy(g, false)
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := obs.NewTrace("bench")
			sp := obs.Begin(tr, obs.PhaseGreedyGrow)
			set := repair.GrowGreedy(g, false)
			sp.Add("setSize", int64(len(set)))
			sp.End()
			obs.Pipeline.GreedySetSize.AddInt(len(set))
		}
	})
}

func BenchmarkJointGrowth(b *testing.B) {
	inst, err := eval.Prepare(eval.Setup{Workload: "hosp", N: 600, FDs: 2, ErrorRate: 0.1, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	graphs := make([]*vgraph.Graph, len(inst.Set.FDs))
	for i, f := range inst.Set.FDs {
		graphs[i] = vgraph.Build(inst.Dirty, f, inst.Cfg, inst.Set.Tau[i], vgraph.Options{})
	}
	for _, mode := range []string{"naive", "heap"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				repair.GrowJoint(inst.Dirty, graphs, mode == "naive")
			}
		})
	}
}

func BenchmarkExactCombos(b *testing.B) {
	inst, err := eval.Prepare(eval.Setup{Workload: "hosp", N: 120, FDs: 3, ErrorRate: 0.05, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repair.ExactM(inst.Dirty, inst.Set, inst.Cfg,
					repair.Options{Parallel: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPlanCosts(b *testing.B) {
	inst, err := eval.Prepare(eval.Setup{Workload: "hosp", N: 1000, ErrorRate: 0.04, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	pb, err := repair.NewPlanBench(inst.Dirty, inst.Set, inst.Cfg, false)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := pb.Run(workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
