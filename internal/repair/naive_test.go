package repair

import (
	"math"

	"ftrepair/internal/dataset"
	"ftrepair/internal/vgraph"
)

// The naive reference implementations of the greedy growth loops. Nothing
// in production calls them: the heap paths (greedySet, jointGreedySets) are
// held to bit-identical output with them by the equivalence tests in
// greedyheap_test.go, and the growth benchmarks time both sides.

func newGreedyScorer(g *vgraph.Graph) *greedyScorer {
	s := &greedyScorer{}
	s.reset(g)
	return s
}

// greedySetNaive is the reference implementation of Algorithm 2: every
// round rescans every unchosen, unblocked candidate. O(V²·deg) growth — the
// heap path exists because of it — but trivially correct, so it anchors the
// equivalence tests and the naive side of BenchmarkGreedyGrowth. The
// normalized score it minimizes is documented on greedyScorer.
func greedySetNaive(g *vgraph.Graph, cancel <-chan struct{}) []int {
	if canceled(cancel) {
		return nil
	}
	n := len(g.Vertices)
	if n == 0 {
		return nil
	}
	s := newGreedyScorer(g)
	for {
		if greedyStepHook != nil {
			greedyStepHook(len(s.set))
		}
		if canceled(cancel) {
			return s.set
		}
		best, bestCost := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if !s.valid(v) {
				continue
			}
			if c := s.score(v); s.better(c, v, bestCost, best) {
				best, bestCost = v, c
			}
		}
		if best < 0 {
			break
		}
		s.add(best)
	}
	return s.set
}

// jointGreedySetsNaive is the retained reference implementation of the
// joint greedy growth: every round rescans every unchosen candidate of
// every FD, caching Eq-12 costs and recomputing only those within three
// hops of the previous addition. It anchors the heap path's equivalence
// tests and the naive side of BenchmarkJointGrowth.
func jointGreedySetsNaive(rel *dataset.Relation, graphs []*vgraph.Graph, cancel <-chan struct{}) [][]int {
	js := newJointState(rel, graphs)
	cost := make([][]float64, len(graphs))
	dirty := make([][]bool, len(graphs))
	for i, g := range graphs {
		cost[i] = make([]float64, len(g.Vertices))
		dirty[i] = make([]bool, len(g.Vertices))
		for v := range dirty[i] {
			dirty[i][v] = true
		}
	}
	mark := func(fdIdx, u int) { dirty[fdIdx][u] = true }
	for {
		if greedyStepHook != nil {
			greedyStepHook(js.added)
		}
		if canceled(cancel) {
			break
		}
		bestI, bestV := -1, -1
		bestCost := math.Inf(1)
		for i := range graphs {
			for v := range graphs[i].Vertices {
				if !js.valid(i, v) {
					continue
				}
				if dirty[i][v] {
					cost[i][v] = js.tupleCost(i, v)
					dirty[i][v] = false
				}
				if js.takeOver(cost[i][v], i, v, bestCost, bestI, bestV) {
					bestI, bestV, bestCost = i, v, cost[i][v]
				}
			}
		}
		if bestI < 0 {
			break
		}
		js.add(bestI, bestV, mark)
	}
	return js.sets
}
