package repair

import (
	"errors"
	"math"
	"time"

	"ftrepair/internal/bitset"
	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/mis"
	"ftrepair/internal/obs"
	"ftrepair/internal/vgraph"
)

// ExactS repairs rel w.r.t. a single FD optimally (§3.1): it finds the best
// maximal independent set of the violation graph by expansion with
// lower/upper-bound pruning, then repairs every excluded pattern to its
// cheapest neighbor in the set. The search is exponential in the worst case
// (the problem is NP-hard, Theorem 3); Options.MaxNodes bounds the tree and
// yields an error when exceeded.
func ExactS(rel *dataset.Relation, f *fd.FD, cfg *fd.DistConfig, tau float64, opts Options) (*Result, error) {
	start := time.Now()
	snap := snapCacheStats(cfg)
	g := vgraph.Build(rel, f, cfg, tau, graphOpts(opts))
	sp := obs.Begin(opts.Trace, obs.PhaseExpand)
	sp.SetFD(f.String())
	res, err := mis.BestMIS(g, mis.Options{
		DisablePruning: opts.DisablePruning,
		NaturalOrder:   opts.NaturalOrder,
		MaxNodes:       opts.MaxNodes,
		Cancel:         opts.Cancel,
	})
	sp.Add("nodes", int64(res.NodesExplored))
	sp.Add("pruned", int64(res.Pruned))
	sp.End()
	if errors.Is(err, mis.ErrCanceled) {
		// Canceled mid-search: no set was chosen, so the partial repair is
		// the untouched input.
		stats := Stats{Vertices: len(g.Vertices), Edges: g.NumEdges()}
		addCacheStats(&stats, cfg, snap)
		partial, ferr := finish(rel, rel.Clone(), cfg, "ExactS", time.Since(start), stats, opts.Ledger, nil)
		if ferr != nil {
			return nil, ferr
		}
		return partial, ErrCanceled
	}
	if err != nil {
		return nil, err
	}
	ev := newEventBuf(opts)
	ap := obs.Begin(opts.Trace, obs.PhaseApply)
	repaired := applyVertexRepairs(rel, g, repairTargets(g, res.Set), cfg, ev)
	ap.End()
	stats := Stats{
		Vertices: len(g.Vertices),
		Edges:    g.NumEdges(),
		Nodes:    res.NodesExplored,
		Pruned:   res.Pruned,
	}
	addCacheStats(&stats, cfg, snap)
	return finish(rel, repaired, cfg, "ExactS", time.Since(start), stats, opts.Ledger, ev.take())
}

// repairTargets maps every vertex outside the independent set to its
// cheapest neighbor inside it.
func repairTargets(g *vgraph.Graph, set []int) map[int]int {
	in := bitset.New(len(g.Vertices))
	for _, v := range set {
		in.Set(v)
	}
	target := make(map[int]int)
	for v := range g.Vertices {
		if in.Has(v) {
			continue
		}
		best, bestW := -1, math.Inf(1)
		for _, e := range g.Neighbors(v) {
			if in.Has(e.To) && e.W < bestW {
				best, bestW = e.To, e.W
			}
		}
		if best >= 0 {
			target[v] = best
		}
	}
	return target
}

// GreedyS repairs rel w.r.t. a single FD with the greedy heuristic of §3.2
// (Algorithm 2): grow an expected-best independent set by repeatedly adding
// the pattern with the smallest incremental repair cost (Eq. 8), then
// repair excluded patterns to their cheapest chosen neighbor.
func GreedyS(rel *dataset.Relation, f *fd.FD, cfg *fd.DistConfig, tau float64, opts Options) (*Result, error) {
	start := time.Now()
	snap := snapCacheStats(cfg)
	g := vgraph.Build(rel, f, cfg, tau, graphOpts(opts))
	sp := obs.Begin(opts.Trace, obs.PhaseGreedyGrow)
	sp.SetFD(f.String())
	set := greedySet(g, opts.Cancel)
	sp.Add("setSize", int64(len(set)))
	sp.End()
	ev := newEventBuf(opts)
	ap := obs.Begin(opts.Trace, obs.PhaseApply)
	repaired := applyVertexRepairs(rel, g, repairTargets(g, set), cfg, ev)
	ap.End()
	stats := Stats{Vertices: len(g.Vertices), Edges: g.NumEdges(), SetSize: len(set)}
	addCacheStats(&stats, cfg, snap)
	res, err := finish(rel, repaired, cfg, "GreedyS", time.Since(start), stats, opts.Ledger, ev.take())
	if err == nil && canceled(opts.Cancel) {
		// The greedy growth stopped early: excluded vertices without an
		// in-set neighbor stay unrepaired.
		return res, ErrCanceled
	}
	return res, err
}

// The greedy growth loop itself (greedySet) lives in greedyheap.go
// alongside the indexed min-heap that makes it fast; its naive reference
// greedySetNaive is in naive_test.go.
