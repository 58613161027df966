package repair

import (
	"math"
	"sync"

	"ftrepair/internal/fd"
	"ftrepair/internal/vgraph"
)

// This file implements the indexed-heap fast path for the greedy growth
// loops (GreedyS's Algorithm 2 and GreedyM's Algorithm 4). The naive loops
// rescan every unchosen candidate each round — O(V²·deg) growth — but
// adding a vertex only perturbs the scores of candidates near it (distance
// 2 for the single-FD score, distance 3 for the joint score), so the heap
// path maintains candidate scores incrementally: a lazy min-heap holds one
// live entry per candidate, version stamps invalidate entries whose vertex
// was rescored, and each round pops near the minimum instead of rescanning.
//
// The invariant is bit-identical output with the naive reference
// implementations (greedySetNaive, jointGreedySetsNaive in naive_test.go)
// on any input:
//
//   - Scores are computed by the same functions in the same summation
//     order, so cached heap scores are the exact floats the naive rescan
//     would recompute (a candidate is rescored whenever any input of its
//     score changes, so cached values never go stale).
//   - Selection replicates the naive scan's fd.Eps tie-breaking, which is
//     not a total order (comparisons within eps fall through to
//     multiplicity), so the heap cannot simply pop its minimum. Instead
//     each round pops the eps-gap closure of the minimum — the live
//     minimum plus every live candidate reachable from it by score steps
//     of at most fd.Eps — and replays the exact naive comparison loop over
//     the closure in naive scan order. This is provably equivalent to the
//     full scan: every candidate outside the closure scores more than eps
//     above every candidate inside it, so in the naive scan (a) the first
//     closure member scanned always takes over any outside incumbent (it
//     is strictly smaller by more than eps), and (b) no outside candidate
//     can ever take over a closure incumbent (neither the strict nor the
//     within-eps arm can fire across the gap). From the first closure
//     takeover on, the naive trajectory involves closure members only, in
//     scan order — exactly the replay. Closure losers are pushed back for
//     later rounds.
//
// greedyStepHook, when set (tests only), observes every growth round of
// all four loops — it fires with the current set size immediately before
// each round's cancellation poll, letting tests cancel deterministically
// after a fixed number of rounds and assert heap/naive partial-set parity.
var greedyStepHook func(added int)

// scoreEntry is one heap candidate: a (graph, vertex) pair with its cached
// selection score. Entries whose ver no longer matches the vertex's current
// version are stale and discarded on pop.
type scoreEntry struct {
	score float64
	mult  int
	fd    int
	id    int
	ver   uint32
}

// entryLess orders the heap: score ascending, then multiplicity descending,
// then graph and vertex id ascending — the same priority the naive
// tie-breaks express, so closure pops surface candidates in a stable
// order. Exact float comparison is deliberate; the eps tolerance is
// applied by the closure replay, not the heap order.
func entryLess(a, b scoreEntry) bool {
	if a.score < b.score {
		return true
	}
	if b.score < a.score {
		return false
	}
	if a.mult != b.mult {
		return a.mult > b.mult
	}
	if a.fd != b.fd {
		return a.fd < b.fd
	}
	return a.id < b.id
}

// scoreHeap is a binary min-heap of scoreEntry under entryLess, hand-rolled
// to keep entries unboxed on the hot path.
type scoreHeap []scoreEntry

func (h *scoreHeap) push(e scoreEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *scoreHeap) pop() scoreEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	h.siftDown(0)
	return top
}

func (h *scoreHeap) siftDown(i int) {
	s := *h
	n := len(s)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && entryLess(s[l], s[small]) {
			small = l
		}
		if r < n && entryLess(s[r], s[small]) {
			small = r
		}
		if small == i {
			return
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
}

// init establishes the heap invariant over an arbitrarily ordered slice.
func (h *scoreHeap) init() {
	for i := len(*h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// popClosure pops the eps-gap closure of the live minimum: the minimum
// live entry plus every live entry within fd.Eps of the maximum popped so
// far. Stale entries encountered on the way are discarded. The result is
// in ascending score order; the caller replays the naive selection over it
// and pushes the losers back. Returns nil when no live candidate remains.
func (h *scoreHeap) popClosure(live func(scoreEntry) bool) []scoreEntry {
	var out []scoreEntry
	var maxScore float64
	for len(*h) > 0 {
		if !live((*h)[0]) {
			h.pop()
			continue
		}
		if out != nil && (*h)[0].score > maxScore+fd.Eps {
			break
		}
		e := h.pop()
		out = append(out, e)
		maxScore = e.score
	}
	return out
}

// greedyScorer holds the shared growth state of Algorithm 2: the chosen
// set, the blocked frontier, and the normalized Eq 7/8 cost model. Both the
// naive rescan (greedySetNaive, naive_test.go) and the heap path drive the
// same scorer, so their scores are bitwise equal by construction.
//
// Selection uses a normalized form of Eq. 7/8: a candidate is charged, per
// neighbor it dooms, only the cost *above* that neighbor's unavoidable
// minimum repair (its cheapest edge — paid in any maximal set excluding
// it), and is credited its own avoided repair cost. The literal Eq. 8 is
// myopic on two common shapes: a one-tuple typo pattern dooms its
// high-multiplicity source cheaply and gets picked first (flipping every
// legitimate tuple to the typo spelling), and a legitimate pattern
// surrounded by error patterns is charged their full — but inevitable —
// repair cost. The normalized score keeps the paper's complexity and
// resolves both.
type greedyScorer struct {
	g *vgraph.Graph
	// minOmega[v]: v's cheapest outgoing edge — the floor of its repair
	// cost if it ends up excluded (0 for isolated vertices, which are
	// never repaired). avoided[v] scales it by multiplicity.
	minOmega []float64
	avoided  []float64
	inSet    []bool
	// blocked[v]: v has a neighbor in the set (cannot join; must repair).
	blocked []bool
	// repairCost[v]: current min_{u∈Î∩N(v)} ω(v,u) for blocked v.
	repairCost []float64
	set        []int
}

// reset re-initializes the scorer over g, reusing every slice whose
// capacity suffices — the reset is allocation-free once the scorer has seen
// a graph at least this large.
func (s *greedyScorer) reset(g *vgraph.Graph) {
	n := len(g.Vertices)
	s.g = g
	s.minOmega = growFloats(s.minOmega, n)
	s.avoided = growFloats(s.avoided, n)
	s.inSet = growBools(s.inSet, n)
	s.blocked = growBools(s.blocked, n)
	s.repairCost = growFloats(s.repairCost, n)
	s.set = s.set[:0]
	for v := 0; v < n; v++ {
		best := math.Inf(1)
		for _, e := range g.Neighbors(v) {
			if e.W < best {
				best = e.W
			}
		}
		if math.IsInf(best, 1) {
			best = 0
		}
		s.minOmega[v] = best
		s.avoided[v] = float64(g.Vertices[v].Mult()) * best
		s.inSet[v] = false
		s.blocked[v] = false
		s.repairCost[v] = math.Inf(1)
	}
}

// growFloats returns a float slice of length n, reusing s's capacity.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growBools returns a bool slice of length n, reusing s's capacity.
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// valid reports whether v is still a candidate (neither chosen nor doomed).
func (s *greedyScorer) valid(v int) bool { return !s.inSet[v] && !s.blocked[v] }

// score is the normalized Eq-8 incremental cost of adding candidate v: per
// neighbor it dooms, only the cost above that neighbor's unavoidable
// minimum repair, minus v's own avoided repair cost. Summation follows
// adjacency order so every caller computes bitwise-identical values.
func (s *greedyScorer) score(v int) float64 {
	var inc float64
	for _, e := range s.g.Neighbors(v) {
		if s.blocked[e.To] {
			// Neighbor already doomed: adding v can only lower its
			// repair cost.
			if e.W < s.repairCost[e.To] {
				inc += float64(s.g.Vertices[e.To].Mult()) * (e.W - s.repairCost[e.To])
			}
		} else if !s.inSet[e.To] {
			// Newly doomed neighbor pays its repair to v, above the
			// floor it pays in any case.
			inc += float64(s.g.Vertices[e.To].Mult()) * (e.W - s.minOmega[e.To])
		}
	}
	return inc - s.avoided[v]
}

// better orders candidates: smaller net cost first; ties (exact ties are
// common — a typo vertex's incremental equals its legitimate source's
// avoided cost) break toward higher multiplicity, then lower id for
// determinism.
func (s *greedyScorer) better(cost float64, v int, bestCost float64, bestV int) bool {
	if cost < bestCost-fd.Eps {
		return true
	}
	if cost > bestCost+fd.Eps {
		return false
	}
	if bestV < 0 {
		return true
	}
	mv, mb := s.g.Vertices[v].Mult(), s.g.Vertices[bestV].Mult()
	if mv != mb {
		return mv > mb
	}
	return v < bestV
}

// add commits v to the set and dooms its unchosen neighbors.
func (s *greedyScorer) add(v int) {
	s.inSet[v] = true
	s.set = append(s.set, v)
	for _, e := range s.g.Neighbors(v) {
		if s.inSet[e.To] {
			continue
		}
		s.blocked[e.To] = true
		if e.W < s.repairCost[e.To] {
			s.repairCost[e.To] = e.W
		}
	}
}

// greedyGrower is the pooled per-run state of the indexed-heap growth path:
// the scorer, the lazy heap, version stamps, and the round's closure
// buffer. Every round is driven by methods (no closures) over these pooled
// slices, so steady-state runs at a stable graph size allocate nothing —
// the property the alloc-regression gate asserts.
type greedyGrower struct {
	s     greedyScorer
	ver   []uint32
	h     scoreHeap
	stamp []int
	cands []scoreEntry
	round int
}

var greedyGrowerPool = sync.Pool{New: func() any { return new(greedyGrower) }}

// reset re-seeds the grower over g, reusing pooled capacity.
func (gr *greedyGrower) reset(g *vgraph.Graph) {
	n := len(g.Vertices)
	gr.s.reset(g)
	if cap(gr.ver) < n {
		gr.ver = make([]uint32, n)
	}
	gr.ver = gr.ver[:n]
	if cap(gr.h) < n {
		gr.h = make(scoreHeap, n)
	}
	gr.h = gr.h[:n]
	for v := 0; v < n; v++ {
		gr.ver[v] = 0
		gr.h[v] = scoreEntry{score: gr.s.score(v), mult: g.Vertices[v].Mult(), id: v}
	}
	gr.h.init()
	if cap(gr.stamp) < n {
		gr.stamp = make([]int, n)
	}
	// stamp dedupes the distance-2 rescore walk within one round.
	gr.stamp = gr.stamp[:n]
	for i := range gr.stamp {
		gr.stamp[i] = -1
	}
	gr.round = 0
}

// live reports whether a heap entry is current: its version matches and its
// vertex is still a candidate.
func (gr *greedyGrower) live(e scoreEntry) bool {
	return e.ver == gr.ver[e.id] && gr.s.valid(e.id)
}

// popClosure is scoreHeap.popClosure specialized to the grower: it pops
// into the reused cands buffer with the liveness test inlined, so rounds
// allocate neither a closure nor an output slice.
func (gr *greedyGrower) popClosure() []scoreEntry {
	out := gr.cands[:0]
	var maxScore float64
	for len(gr.h) > 0 {
		if !gr.live(gr.h[0]) {
			gr.h.pop()
			continue
		}
		if len(out) > 0 && gr.h[0].score > maxScore+fd.Eps {
			break
		}
		e := gr.h.pop()
		out = append(out, e)
		maxScore = e.score
	}
	gr.cands = out
	return out
}

// rescore refreshes u's heap entry if its score inputs may have changed
// this round.
func (gr *greedyGrower) rescore(u int) {
	if gr.stamp[u] == gr.round {
		return
	}
	gr.stamp[u] = gr.round
	if !gr.s.valid(u) {
		return
	}
	gr.ver[u]++
	gr.h.push(scoreEntry{score: gr.s.score(u), mult: gr.s.g.Vertices[u].Mult(), id: u, ver: gr.ver[u]})
}

// grow runs the round loop until no live candidate remains or cancel
// fires; the chosen set accumulates in gr.s.set.
func (gr *greedyGrower) grow(cancel <-chan struct{}) {
	g := gr.s.g
	for {
		if greedyStepHook != nil {
			greedyStepHook(len(gr.s.set))
		}
		if canceled(cancel) {
			return
		}
		cands := gr.popClosure()
		if len(cands) == 0 {
			return
		}
		// Replay the naive selection over the closure in naive scan order.
		sortEntriesByID(cands)
		best, bestCost := -1, math.Inf(1)
		for _, e := range cands {
			if gr.s.better(e.score, e.id, bestCost, best) {
				best, bestCost = e.id, e.score
			}
		}
		for _, e := range cands {
			if e.id != best {
				gr.h.push(e)
			}
		}
		gr.s.add(best)
		// Adding best perturbs exactly the scores of candidates within
		// distance 2: direct neighbors lose their contribution for best
		// (now chosen), and second-hop candidates see a neighbor newly
		// blocked or its repair floor lowered.
		gr.round++
		for _, e := range g.Neighbors(best) {
			gr.rescore(e.To)
			for _, e2 := range g.Neighbors(e.To) {
				gr.rescore(e2.To)
			}
		}
	}
}

// sortEntriesByID orders closure entries by vertex id — the naive scan
// order. Ids are unique within a closure, so this insertion sort yields the
// exact order sort.Slice did, without its closure and swap-reflection
// allocations.
func sortEntriesByID(es []scoreEntry) {
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i - 1
		for j >= 0 && es[j].id > e.id {
			es[j+1] = es[j]
			j--
		}
		es[j+1] = e
	}
}

// sortEntriesByFDID orders closure entries by (FD index, vertex id) — the
// joint loop's naive scan order. The pair is unique within a closure, so
// the order matches what sort.Slice produced.
func sortEntriesByFDID(es []scoreEntry) {
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i - 1
		for j >= 0 && (es[j].fd > e.fd || (es[j].fd == e.fd && es[j].id > e.id)) {
			es[j+1] = es[j]
			j--
		}
		es[j+1] = e
	}
}

// greedySet runs Algorithm 2 on the pattern graph and returns the chosen
// maximal independent set, using the indexed-heap growth path. When cancel
// fires mid-growth the set built so far is returned (independent, but
// possibly not maximal); the caller decides how to surface the
// cancellation. Output is bit-identical to greedySetNaive on any input.
func greedySet(g *vgraph.Graph, cancel <-chan struct{}) []int {
	return growInto(g, cancel, nil)
}

// growInto is greedySet with a caller-owned result buffer: the chosen set
// is appended to dst[:0]. The growth state itself comes from a pool, so a
// steady-state caller reusing dst performs zero allocations per run.
func growInto(g *vgraph.Graph, cancel <-chan struct{}, dst []int) []int {
	dst = dst[:0]
	if canceled(cancel) || len(g.Vertices) == 0 {
		return dst
	}
	gr := greedyGrowerPool.Get().(*greedyGrower)
	gr.reset(g)
	gr.grow(cancel)
	dst = append(dst, gr.s.set...)
	// Drop the graph reference so the pooled grower does not pin it.
	gr.s.g = nil
	greedyGrowerPool.Put(gr)
	return dst
}
