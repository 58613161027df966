// Package vgraph builds the paper's graph model (§3): for an FD φ, vertices
// are the distinct projections of the database onto φ's attributes (tuple
// grouping), and an undirected edge connects two vertices whose patterns are
// an FT-violation, weighted by their distance. Repair costs between grouped
// vertices scale the distance by the multiplicity of the vertex being
// repaired, realizing the paper's directed grouped graph G'.
//
// Construction is the pipeline's bottleneck (§6), so Build fans candidate
// verification out across a worker pool. The result is deterministic: the
// same graph, bit for bit, for any worker count — see Options.Workers.
//
// The graph is stored CSR-style: all adjacency entries live in one flat
// []Edge arena indexed by a per-vertex offset table, and vertices are a
// flat []Vertex slice. Every hot consumer (mis expansion, greedy growth,
// plan costing) addresses vertices by dense index, so traversal is
// pointer-free; the byKey map survives only for point lookups by projection
// key. A pooled Builder reuses the per-worker edge lists and the CSR
// counting scratch across builds, which matters to the incremental engine's
// frequent small shard rebuilds.
package vgraph

import (
	"runtime"
	"sort"
	"sync"

	"ftrepair/internal/bitset"
	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/obs"
	"ftrepair/internal/strsim"
)

// Vertex is a pattern vertex: one distinct projection of the relation onto
// the FD's attributes, together with the rows carrying it.
type Vertex struct {
	// Rep is a representative tuple holding the pattern's cell values (the
	// first tuple encountered with this projection).
	Rep dataset.Tuple
	// Rows lists the indices of all tuples sharing the projection.
	Rows []int
}

// Mult is the number of tuples grouped into the vertex.
func (v *Vertex) Mult() int { return len(v.Rows) }

// Edge is a weighted adjacency entry. W is the repair weight
// ω(u,v) = cost(u^φ, v^φ): the unweighted Eq-3 distance summed over the
// FD's attributes. D is the weighted Eq-2 distance that put the pair inside
// the threshold — the violation distance — recorded at build time so
// consumers (repair.Detect) need not re-derive it. (Edge existence is
// decided by D against τ; W is the repair cost model.)
type Edge struct {
	To int
	W  float64
	D  float64
}

// Graph is the violation graph of one FD over one relation.
type Graph struct {
	FD       *fd.FD
	Cfg      *fd.DistConfig
	Tau      float64
	Vertices []Vertex
	// CSR adjacency arena: edges holds every directed adjacency entry,
	// grouped by source vertex and sorted by To within a vertex;
	// eoff[u]:eoff[u+1] bounds vertex u's slice.
	edges []Edge
	eoff  []int32
	byKey map[string]int
	// keys[v] is the interned projection key of vertex v — the exact string
	// byKey maps from, shared, so key-class operations never re-derive it.
	keys []string
	// canon maps each vertex to the canonical vertex of its key class: nil
	// (identity) for grouped graphs, where keys are unique; for ungrouped
	// graphs the vertex byKey resolves the shared key to. Membership tests
	// by projection (repair's chosen-set bitsets) canonicalize through it.
	canon []int32
	// ungrouped marks graphs built with Options.DisableGrouping, where
	// distinct vertices may carry equal projections and must not be
	// connected.
	ungrouped bool
	// Probe-index state, retained after an indexed build so point queries
	// (ViolatorCount on unseen tuples) reuse the q-gram filter instead of
	// scanning every vertex. probe is -1 when no index was built.
	probe   int
	attrTau float64
	ix      *strsim.Index
	vals    []string // distinct probe values in index-id order
	byVal   [][]int  // probe value id -> vertex indices carrying it
}

// Options tunes graph construction.
type Options struct {
	// DisableIndex forces the all-pairs comparison, for ablation.
	DisableIndex bool
	// DisableGrouping gives every tuple its own vertex instead of grouping
	// tuples with equal projections (§3 "Tuple grouping"), for the
	// ablation quantifying how much grouping saves. Tuples with equal
	// projections never FT-violate, so no edges connect them.
	DisableGrouping bool
	// Workers caps the number of concurrent verification workers. 0 means
	// GOMAXPROCS, 1 forces the sequential path. Any value produces the
	// identical graph: workers emit private edge lists that are merged and
	// per-vertex sorted, and each edge's existence, weight, and distance
	// are pure functions of the pair.
	Workers int
	// Cancel, when it fires mid-build, stops candidate verification
	// cooperatively. The returned graph then has all its vertices but only
	// the edges verified so far; callers that pass Cancel must poll it
	// after Build and treat the graph as partial when it fired.
	Cancel <-chan struct{}
	// Trace, when non-nil, receives a graphbuild span per Build call.
	// Purely observational: never consulted by construction decisions.
	Trace *obs.Trace
	// Worker is the 1-based build-slot label for the trace span when
	// several graphs build concurrently; 0 (the zero value) leaves the
	// span unlabeled.
	Worker int
}

// Builder carries the reusable construction scratch — per-worker edge
// record lists and the CSR degree/cursor counters — so repeated builds
// (benchmark loops, incremental shard rebuilds) do not reallocate it. A
// Builder is not safe for concurrent use; the package-level Build draws
// from a pool, which is the idiomatic entry point.
type Builder struct {
	lists [][]edgeRec
	deg   []int32
}

// NewBuilder returns an empty Builder. Most callers should use the
// package-level Build, which pools Builders automatically.
func NewBuilder() *Builder { return &Builder{} }

var builderPool = sync.Pool{New: func() any { return NewBuilder() }}

// Build constructs the violation graph of f over rel at threshold tau using
// a pooled Builder.
func Build(rel *dataset.Relation, f *fd.FD, cfg *fd.DistConfig, tau float64, opts Options) *Graph {
	b := builderPool.Get().(*Builder)
	g := b.Build(rel, f, cfg, tau, opts)
	builderPool.Put(b)
	return g
}

// Build constructs the violation graph of f over rel at threshold tau,
// reusing the Builder's scratch. The returned Graph owns all its memory;
// only construction-time buffers are retained by the Builder.
func (b *Builder) Build(rel *dataset.Relation, f *fd.FD, cfg *fd.DistConfig, tau float64, opts Options) *Graph {
	sp := obs.Begin(opts.Trace, obs.PhaseGraphBuild)
	sp.SetFD(f.String())
	if opts.Worker > 0 {
		sp.SetWorker(opts.Worker - 1)
	}
	defer sp.End()

	g := &Graph{FD: f, Cfg: cfg, Tau: tau, byKey: make(map[string]int), probe: -1}
	for i, t := range rel.Tuples {
		k := t.Key(f.Attrs())
		vi, ok := g.byKey[k]
		if !ok || opts.DisableGrouping {
			vi = len(g.Vertices)
			g.byKey[k] = vi
			g.Vertices = append(g.Vertices, Vertex{Rep: t})
			g.keys = append(g.keys, k)
		}
		g.Vertices[vi].Rows = append(g.Vertices[vi].Rows, i)
	}

	g.ungrouped = opts.DisableGrouping
	if g.ungrouped {
		// Key classes are non-trivial only without grouping: resolve each
		// vertex to the one byKey elects for its key.
		g.canon = make([]int32, len(g.Vertices))
		for vi := range g.Vertices {
			g.canon[vi] = int32(g.byKey[g.keys[vi]])
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(g.Vertices) {
		workers = len(g.Vertices)
	}
	if workers < 1 {
		workers = 1
	}
	probe := g.chooseProbe(rel)
	if opts.DisableIndex || probe < 0 {
		g.mergeCSR(b, g.fanOut(b, workers, opts.Cancel, g.allPairsRange))
	} else {
		g.indexProbe(probe)
		g.mergeCSR(b, g.fanOut(b, workers, opts.Cancel, g.indexedRange))
	}

	// Flush build totals into the default registry here — the single flush
	// point for graph metrics, covering every Build regardless of caller
	// (repairs, Detect, benchmarks). The repair Stats flush deliberately
	// skips its Vertices/Edges fields for the same reason.
	edges := g.NumEdges()
	obs.Pipeline.GraphBuilds.Inc()
	obs.Pipeline.GraphVertices.AddInt(len(g.Vertices))
	obs.Pipeline.GraphEdges.AddInt(edges)
	sp.Add("vertices", int64(len(g.Vertices)))
	sp.Add("edges", int64(edges))
	sp.Add("workers", int64(workers))
	return g
}

// chooseProbe picks a string attribute of the FD to index, preferring LHS
// attributes (their weight is usually at least the RHS weight, giving the
// tightest per-attribute threshold). Returns -1 when no string attribute
// exists, the per-attribute threshold would not prune (τ/w >= 1), or the
// distance flavor is not plain Levenshtein (the q-gram index verifies with
// Levenshtein; OSA distances can be smaller, so the filter would miss
// candidates).
func (g *Graph) chooseProbe(rel *dataset.Relation) int {
	if g.Cfg.Edit != fd.EditLevenshtein {
		return -1
	}
	try := func(cols []int, w float64) int {
		if w <= 0 || g.Tau/w >= 1 {
			return -1
		}
		for _, c := range cols {
			if rel.Schema.Attr(c).Type == dataset.String {
				return c
			}
		}
		return -1
	}
	if c := try(g.FD.LHS, g.Cfg.WL); c >= 0 {
		return c
	}
	return try(g.FD.RHS, g.Cfg.WR)
}

// indexProbe builds the q-gram index over the distinct probe-attribute
// values, in first-occurrence vertex order so value ids are deterministic.
func (g *Graph) indexProbe(probe int) {
	w := g.Cfg.WL
	if !contains(g.FD.LHS, probe) {
		w = g.Cfg.WR
	}
	g.probe = probe
	g.attrTau = g.Tau / w
	g.ix = strsim.NewIndex(2)
	valID := make(map[string]int, len(g.Vertices))
	for vi := range g.Vertices {
		val := g.Vertices[vi].Rep[probe]
		id, ok := valID[val]
		if !ok {
			id = g.ix.Add(val)
			valID[val] = id
			g.vals = append(g.vals, val)
			g.byVal = append(g.byVal, nil)
		}
		g.byVal[id] = append(g.byVal[id], vi)
	}
}

// distWithin evaluates the FD distance with early exit once the running sum
// exceeds tau (see fd.DistConfig.DistWithin).
func (g *Graph) distWithin(t1, t2 dataset.Tuple) (float64, bool) {
	return g.Cfg.DistWithin(g.FD, g.Tau, t1, t2)
}

// PatternDist is the Eq-3 repair cost between the patterns of two vertices:
// the unweighted sum of per-attribute distances over the FD's attributes.
func (g *Graph) PatternDist(u, v int) float64 {
	var sum float64
	tu, tv := g.Vertices[u].Rep, g.Vertices[v].Rep
	for _, c := range g.FD.Attrs() {
		sum += g.Cfg.RepairDist(c, tu[c], tv[c])
	}
	return sum
}

// edgeRec is one verified edge produced by a build worker, buffered locally
// until the single-threaded merge.
type edgeRec struct {
	u, v int
	w, d float64
}

// verifyPair checks the candidate pair (i, j) and, if it FT-violates,
// returns the edge with its repair weight and violation distance. Pure in
// the pair (the distance cache only memoizes, never changes, results), so
// workers can verify pairs in any order and partition.
func (g *Graph) verifyPair(i, j int) (edgeRec, bool) {
	if g.ungrouped && g.FD.ProjEqual(g.Vertices[i].Rep, g.Vertices[j].Rep) {
		return edgeRec{}, false
	}
	d, ok := g.distWithin(g.Vertices[i].Rep, g.Vertices[j].Rep)
	if !ok {
		return edgeRec{}, false
	}
	return edgeRec{u: i, v: j, w: g.PatternDist(i, j), d: d}, true
}

// verifyPairMT is verifyPair with vertex i's pattern held fixed in a
// PairMatcher; the build ranges stream every candidate j through it so i's
// bit-parallel tables are built once, not once per pair. Same edge, weight,
// and distance as verifyPair.
func (g *Graph) verifyPairMT(pm *fd.PairMatcher, i, j int) (edgeRec, bool) {
	if g.ungrouped && g.FD.ProjEqual(g.Vertices[i].Rep, g.Vertices[j].Rep) {
		return edgeRec{}, false
	}
	tj := g.Vertices[j].Rep
	d, ok := pm.DistWithin(g.Tau, tj)
	if !ok {
		return edgeRec{}, false
	}
	var w float64
	for _, c := range g.FD.Attrs() {
		w += pm.RepairDist(c, tj)
	}
	return edgeRec{u: i, v: j, w: w, d: d}, true
}

// fanOut runs the given range verifier on `workers` goroutines, worker w
// owning the stride-partitioned slice {w, w+workers, w+2*workers, ...} of
// the outer loop. Stride partitioning balances the triangular all-pairs
// loop without a work queue, and each worker's output is a deterministic
// function of (start, stride), so the merged edge set does not depend on
// scheduling. The per-worker record lists come from the Builder and keep
// their capacity across builds.
func (g *Graph) fanOut(b *Builder, workers int, cancel <-chan struct{}, run func(dst []edgeRec, start, stride int, cancel <-chan struct{}) []edgeRec) [][]edgeRec {
	if cap(b.lists) < workers {
		lists := make([][]edgeRec, workers)
		copy(lists, b.lists)
		b.lists = lists
	}
	b.lists = b.lists[:workers]
	out := b.lists
	if workers == 1 {
		out[0] = run(out[0][:0], 0, 1, cancel)
		return out
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out[w] = run(out[w][:0], w, workers, cancel)
		}(w)
	}
	wg.Wait()
	return out
}

// mergeCSR folds the per-worker edge lists into the CSR arena: count
// degrees, prefix-sum the offset table, place both directions of every
// record, then sort each vertex's slice by To. Merge order is irrelevant to
// the final graph: each undirected edge appears in exactly one worker's
// list, and To is a strict sort key since a vertex pair carries at most one
// edge — so the arena is bit-identical at any worker count.
func (g *Graph) mergeCSR(b *Builder, lists [][]edgeRec) {
	n := len(g.Vertices)
	if cap(b.deg) < n {
		b.deg = make([]int32, n)
	}
	b.deg = b.deg[:n]
	deg := b.deg
	for i := range deg {
		deg[i] = 0
	}
	total := 0
	for _, recs := range lists {
		total += 2 * len(recs)
		for _, r := range recs {
			deg[r.u]++
			deg[r.v]++
		}
	}
	g.eoff = make([]int32, n+1)
	for i := 0; i < n; i++ {
		g.eoff[i+1] = g.eoff[i] + deg[i]
	}
	g.edges = make([]Edge, total)
	// Reuse deg as the per-vertex write cursor.
	cur := deg
	for i := 0; i < n; i++ {
		cur[i] = g.eoff[i]
	}
	for _, recs := range lists {
		for _, r := range recs {
			g.edges[cur[r.u]] = Edge{To: r.v, W: r.w, D: r.d}
			cur[r.u]++
			g.edges[cur[r.v]] = Edge{To: r.u, W: r.w, D: r.d}
			cur[r.v]++
		}
	}
	for i := 0; i < n; i++ {
		sortEdges(g.edges[g.eoff[i]:g.eoff[i+1]])
	}
}

// sortEdges orders one vertex's adjacency slice by To: insertion sort for
// the short lists that dominate violation graphs (no closure allocation),
// sort.Slice beyond that. To values are unique within a slice, so any
// sorting algorithm yields the identical order.
func sortEdges(es []Edge) {
	if len(es) <= 32 {
		for i := 1; i < len(es); i++ {
			e := es[i]
			j := i - 1
			for j >= 0 && es[j].To > e.To {
				es[j+1] = es[j]
				j--
			}
			es[j+1] = e
		}
		return
	}
	sort.Slice(es, func(a, b int) bool { return es[a].To < es[b].To })
}

// buildCanceled is the cooperative poll used inside build loops.
func buildCanceled(cancel <-chan struct{}) bool {
	if cancel == nil {
		return false
	}
	select {
	case <-cancel:
		return true
	default:
		return false
	}
}

// allPairsRange verifies every pair (i, j), i < j, whose outer index i is
// congruent to start modulo stride. Cancellation is polled every 1024
// candidate pairs.
func (g *Graph) allPairsRange(recs []edgeRec, start, stride int, cancel <-chan struct{}) []edgeRec {
	n := len(g.Vertices)
	pairs := 0
	for i := start; i < n; i += stride {
		pm := g.Cfg.AcquirePairMatcher(g.FD, g.Vertices[i].Rep)
		for j := i + 1; j < n; j++ {
			pairs++
			if pairs&1023 == 0 && buildCanceled(cancel) {
				pm.Release()
				return recs
			}
			if rec, ok := g.verifyPairMT(pm, i, j); ok {
				recs = append(recs, rec)
			}
		}
		pm.Release()
	}
	return recs
}

// indexedRange runs the q-gram candidate generation for every probe value
// id congruent to start modulo stride. Each distinct value *pair* is
// handled exactly once (by the lower id), so the emitted edges partition
// across workers.
// The vi loop is hoisted outside the match loop so one PairMatcher serves
// vertex vi against every candidate; the emitted pair set is identical (the
// (m, vi, vj) guards are order-independent), and the merge sorts per-vertex
// adjacency anyway, so the final graph is unchanged.
func (g *Graph) indexedRange(recs []edgeRec, start, stride int, cancel <-chan struct{}) []edgeRec {
	pairs := 0
	for id := start; id < len(g.vals); id += stride {
		if buildCanceled(cancel) {
			return recs
		}
		matches := g.ix.SearchNormalized(g.vals[id], g.attrTau)
		for _, vi := range g.byVal[id] {
			pm := g.Cfg.AcquirePairMatcher(g.FD, g.Vertices[vi].Rep)
			for _, m := range matches {
				if m.ID < id {
					continue // handle each value pair once (m.ID == id covers same-value vertices)
				}
				for _, vj := range g.byVal[m.ID] {
					if m.ID == id && vj <= vi {
						continue // same value bucket: avoid double visits and self loops
					}
					pairs++
					if pairs&1023 == 0 && buildCanceled(cancel) {
						pm.Release()
						return recs
					}
					if rec, ok := g.verifyPairMT(pm, vi, vj); ok {
						recs = append(recs, rec)
					}
				}
			}
			pm.Release()
		}
	}
	return recs
}

func contains(cols []int, c int) bool {
	for _, x := range cols {
		if x == c {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of vertex u, sorted by vertex id: a
// view into the CSR arena. Callers must not modify it.
func (g *Graph) Neighbors(u int) []Edge { return g.edges[g.eoff[u]:g.eoff[u+1]] }

// Degree is the number of FT-violation partners of u.
func (g *Graph) Degree(u int) int { return int(g.eoff[u+1] - g.eoff[u]) }

// Edge reports the weight of edge (u,v) if present.
func (g *Graph) Edge(u, v int) (float64, bool) {
	es := g.Neighbors(u)
	lo, hi := 0, len(es)
	for lo < hi {
		mid := (lo + hi) / 2
		if es[mid].To < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(es) && es[lo].To == v {
		return es[lo].W, true
	}
	return 0, false
}

// NumEdges counts undirected edges.
func (g *Graph) NumEdges() int { return len(g.edges) / 2 }

// RepairCost is the cost of repairing every tuple grouped in vertex `from`
// to the pattern of vertex `to`: multiplicity times pattern distance (the
// directed grouped-graph weight of §3).
func (g *Graph) RepairCost(from, to int) (float64, bool) {
	w, ok := g.Edge(from, to)
	if !ok {
		return 0, false
	}
	return float64(g.Vertices[from].Mult()) * w, true
}

// Canon returns the canonical vertex of v's projection-key class: v itself
// for grouped graphs (keys are unique), the vertex Lookup resolves the
// shared key to when grouping is disabled. Two vertices carry equal
// projections iff their Canon values coincide.
func (g *Graph) Canon(v int) int {
	if g.canon == nil {
		return v
	}
	return int(g.canon[v])
}

// Components returns the connected components of the violation graph as
// sorted vertex-id slices, ordered by smallest member.
func (g *Graph) Components() [][]int {
	seen := bitset.New(len(g.Vertices))
	var out [][]int
	for s := range g.Vertices {
		if seen.Has(s) {
			continue
		}
		var comp []int
		stack := []int{s}
		seen.Set(s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, e := range g.Neighbors(u) {
				if !seen.Has(e.To) {
					seen.Set(e.To)
					stack = append(stack, e.To)
				}
			}
		}
		sort.Ints(comp)
		out = append(out, comp)
	}
	return out
}

// Lookup returns the vertex carrying the same projection as t, if any.
func (g *Graph) Lookup(t dataset.Tuple) (int, bool) {
	v, ok := g.byKey[t.Key(g.FD.Attrs())]
	return v, ok
}

// ViolatorCount counts the vertices whose pattern FT-violates with t's
// projection: the projections differ and their weighted distance is within
// the graph's threshold. t need not correspond to an existing pattern, so
// this also scores hypothetical repairs (the "triggered violations" of
// §4.4).
//
// For unseen tuples of an indexed graph, the retained q-gram probe index
// narrows the scan: any vertex within total distance τ is within τ/w on the
// probe attribute, so probing at attrTau loses no candidates and the O(V)
// scan drops to the candidates sharing q-grams with t's probe value.
func (g *Graph) ViolatorCount(t dataset.Tuple) int {
	if v, ok := g.Lookup(t); ok {
		return g.Degree(v)
	}
	count := 0
	pm := g.Cfg.AcquirePairMatcher(g.FD, t)
	defer pm.Release()
	if g.ix != nil {
		for _, m := range g.ix.SearchNormalized(t[g.probe], g.attrTau) {
			for _, u := range g.byVal[m.ID] {
				if _, ok := pm.DistWithin(g.Tau, g.Vertices[u].Rep); ok {
					count++
				}
			}
		}
		return count
	}
	for u := range g.Vertices {
		if _, ok := pm.DistWithin(g.Tau, g.Vertices[u].Rep); ok {
			count++
		}
	}
	return count
}

// FTAdjacent reports whether tuple t's projection FT-violates vertex v's
// pattern.
func (g *Graph) FTAdjacent(t dataset.Tuple, v int) bool {
	if u, ok := g.Lookup(t); ok {
		if u == v {
			return false
		}
		_, adjacent := g.Edge(u, v)
		return adjacent
	}
	_, within := g.distWithin(t, g.Vertices[v].Rep)
	return within
}

// OrderByFrequency returns vertex ids sorted by multiplicity descending
// (ties by id), the access order §3.1 recommends for the expansion
// algorithm: high-frequency patterns reach good upper bounds early.
func (g *Graph) OrderByFrequency() []int {
	order := make([]int, len(g.Vertices))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ma, mb := g.Vertices[order[a]].Mult(), g.Vertices[order[b]].Mult()
		if ma != mb {
			return ma > mb
		}
		return order[a] < order[b]
	})
	return order
}
