// Package targettree implements the §5 index for multi-FD repairing: given
// one independent set of patterns per FD, it organizes their join — the
// valid repair targets — as a tree whose levels correspond to FDs (smallest
// pattern set nearest the root) and whose root-to-leaf paths are targets.
// Each node stores the attribute values appearing in its subtree, enabling
// the RDIST+EDIST lower bound used by the best-first nearest-target search
// (Algorithm 5).
//
// The tree is a flat arena keyed on integer ids. Every distinct (column,
// value) pair gets a dense tree-local id, carrying the value's code in the
// column dictionary the distance layer interns it in (or −1 when the value
// is not interned). Nodes sit in one slice in breadth-first order and refer
// to their children, their newly bound values and their subtree values by
// ranges into shared id slices, so a search walks integer arrays and
// memoizes distances in a dense per-query slice indexed by value id.
package targettree

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"ftrepair/internal/dataset"
)

// Level is the input for one FD: the attribute columns its patterns cover
// and the chosen independent set of patterns, each aligned with Attrs.
type Level struct {
	Attrs    []int
	Patterns [][]string
}

// DistFunc scores one attribute repair: the distance between the tuple's
// current value a and a candidate target value b at schema column col.
type DistFunc func(col int, a, b string) float64

// Scorer is the distance source of Nearest: one query tuple's repair
// distances to the tree's values. fd.RepairScorer implements it.
type Scorer interface {
	// TargetDist returns the query's repair distance at schema column col
	// to the tree value v. code is v's code in the Domain dictionary of
	// col, −1 when v is not interned there; num is v parsed as a number
	// at Build, valid when numOK.
	TargetDist(col int, v string, code int32, num float64, numOK bool) float64
}

// Domain is what Build resolves tree values against, once per distinct
// value. The zero Domain interns and parses nothing, which leaves every
// distance to the Scorer's string path.
type Domain struct {
	// Schema, when set, marks the numeric columns whose values Build
	// parses.
	Schema *dataset.Schema
	// Dicts[col] is the dictionary whose codes key col's distance plane
	// (fd.DistConfig.Dicts); nil entries, a nil slice and values outside a
	// dictionary yield code −1. A tree must be scored by the DistConfig
	// whose Dicts built it.
	Dicts []*dataset.Dict
}

// value is one tree-local value id's data.
type value struct {
	val   string
	col   int32 // schema column
	pos   int32 // index into Tree.cols
	code  int32 // Domain dictionary code, −1 when not interned
	numOK bool
	num   float64
}

// node is one arena node. Its children are nodes childLo..childHi-1, the
// value ids it newly binds are bound[boundLo:boundHi] (in level attribute
// order), and the distinct value ids bound strictly below it are
// sub[subLo:subHi], ascending.
type node struct {
	parent           int32
	childLo, childHi int32
	boundLo, boundHi int32
	subLo, subHi     int32
}

// Tree is the built target tree.
type Tree struct {
	// cols is the union of all level attributes, sorted.
	cols []int
	// nodes in breadth-first order; the root is node 0. A node's children
	// are contiguous, and leaves are exactly the non-root nodes without
	// children.
	nodes []node
	bound []int32
	sub   []int32
	// values is indexed by tree-local id. Ids ascend by (column, value),
	// so a node's sorted sub range groups the columns in ascending order
	// and orders each column's values as strings.
	values []value
	// colEnd[pos] is one past the largest id of column cols[pos].
	colEnd []int32
	// Targets counts root-to-leaf paths (valid targets).
	Targets int
}

// MaxNodes bounds the tree size: the worst-case space is the product of
// the level sizes (§5.1), which explodes when the independent sets keep
// many variants per join key (low thresholds on dirty data). Build returns
// an error at the cap; callers fall back to per-FD repair.
const MaxNodes = 1 << 21

// Build constructs the tree. Levels are sorted by |Patterns| ascending so
// the root has small fan-out (§5.1). Paths whose shared attributes do not
// agree are discarded; so are partial paths that cannot reach full depth. It
// returns an error when no valid target exists or the tree exceeds
// MaxNodes. Tree values are resolved against dom once here: dictionary
// codes for interned values, parsed numbers for numeric columns.
func Build(levels []Level, dom Domain) (*Tree, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("targettree: no levels")
	}
	ls := append([]Level(nil), levels...)
	sort.SliceStable(ls, func(a, b int) bool { return len(ls[a].Patterns) < len(ls[b].Patterns) })

	maxCol := 0
	for _, l := range ls {
		if len(l.Attrs) == 0 {
			return nil, fmt.Errorf("targettree: level with no attributes")
		}
		for _, p := range l.Patterns {
			if len(p) != len(l.Attrs) {
				return nil, fmt.Errorf("targettree: pattern arity %d != %d attributes", len(p), len(l.Attrs))
			}
		}
		for _, c := range l.Attrs {
			maxCol = max(maxCol, c)
		}
	}
	inTree := make([]bool, maxCol+1)
	for _, l := range ls {
		for _, c := range l.Attrs {
			inTree[c] = true
		}
	}
	posOf := make([]int32, maxCol+1)
	var cols []int
	for c, in := range inTree {
		posOf[c] = -1
		if in {
			posOf[c] = int32(len(cols))
			cols = append(cols, c)
		}
	}

	b := builder{cols: cols, posOf: posOf, intern: make([]map[string]int32, len(cols))}
	if err := b.grow(ls); err != nil {
		return nil, err
	}
	t := &Tree{cols: cols, Targets: b.targets}
	b.prune(t)
	b.assignIDs(t, dom)
	t.fillSubtrees()
	return t, nil
}

// builder is Build's working state: provisional value ids in
// first-occurrence order and the unpruned breadth-first node arena. The
// unpruned arena is compact — a parent and a pattern index per node, the
// newly bound values implied by the pattern — because joins whose levels
// share no attribute multiply out into mostly dead branches before a later
// level filters them.
type builder struct {
	cols   []int
	posOf  []int32 // schema column -> index into cols, −1 outside the tree
	intern []map[string]int32
	pvals  []string // provisional id -> value
	ppos   []int32  // provisional id -> column position
	// levels[d] created the nodes at depth d+1.
	levels []joinLevel
	// parent[n] and pat[n], the index of the pattern of its level that
	// created node n (−1 for the root). The children of a node n above the
	// last level are nodes childLo[n]..childLo[n+1]-1.
	parent, pat, childLo []int32
	targets              int
}

// joinLevel is one level as the join sees it.
type joinLevel struct {
	ar    int
	pids  []int32 // pattern k's provisional ids: pids[k*ar : (k+1)*ar]
	fresh []int   // attribute indices first bound at this level
	lo    int     // first node of this level's depth
}

// bound appends the provisional ids that pattern k of level lv newly binds.
func (lv *joinLevel) bound(dst []int32, k int32) []int32 {
	p := lv.pids[int(k)*lv.ar:]
	for _, i := range lv.fresh {
		dst = append(dst, p[i])
	}
	return dst
}

func (b *builder) id(pos int32, v string) int32 {
	m := b.intern[pos]
	if m == nil {
		m = make(map[string]int32)
		b.intern[pos] = m
	}
	id, ok := m[v]
	if !ok {
		id = int32(len(b.pvals))
		m[v] = id
		b.pvals = append(b.pvals, v)
		b.ppos = append(b.ppos, pos)
	}
	return id
}

// grow joins the levels breadth-first. Every node at one depth has bound
// the same columns, so a level splits once into the attributes already
// bound (which must agree with the path) and the newly bound ones; the
// level's patterns are bucketed by the first shared attribute's value, so
// each frontier node only tests the patterns that can join it. Children
// keep pattern order, exactly as a scan over every pattern would emit them.
func (b *builder) grow(ls []Level) error {
	b.parent = append(b.parent, -1)
	b.pat = append(b.pat, -1)
	isBound := make([]bool, len(b.cols))
	scratch := make([]int32, len(b.cols))
	frontierLo, frontierHi := 0, 1
	for _, l := range ls {
		lv := joinLevel{ar: len(l.Attrs), lo: frontierHi}
		attrPos := make([]int32, lv.ar)
		var shared []int
		for i, c := range l.Attrs {
			attrPos[i] = b.posOf[c]
			if isBound[attrPos[i]] {
				shared = append(shared, i)
			} else {
				lv.fresh = append(lv.fresh, i)
			}
		}
		lv.pids = make([]int32, len(l.Patterns)*lv.ar)
		for k, p := range l.Patterns {
			for i, v := range p {
				lv.pids[k*lv.ar+i] = b.id(attrPos[i], v)
			}
		}
		for _, i := range lv.fresh {
			isBound[attrPos[i]] = true
		}
		// bucket[bucketOff[id]:bucketOff[id+1]] lists, in pattern order,
		// the patterns whose first shared attribute holds provisional id
		// id. Without shared attributes every pattern joins every node,
		// and the level's node count is known up front.
		bucket := make([]int32, len(l.Patterns))
		var bucketOff []int32
		if len(shared) > 0 {
			s0 := shared[0]
			bucketOff = make([]int32, len(b.pvals)+1)
			for k := range l.Patterns {
				bucketOff[lv.pids[k*lv.ar+s0]+1]++
			}
			for i := 1; i < len(bucketOff); i++ {
				bucketOff[i] += bucketOff[i-1]
			}
			fill := append([]int32(nil), bucketOff[:len(bucketOff)-1]...)
			for k := range l.Patterns {
				id := lv.pids[k*lv.ar+s0]
				bucket[fill[id]] = int32(k)
				fill[id]++
			}
		} else {
			for k := range bucket {
				bucket[k] = int32(k)
			}
			n := min((frontierHi-frontierLo)*len(l.Patterns), MaxNodes)
			b.parent = slices.Grow(b.parent, n)
			b.pat = slices.Grow(b.pat, n)
		}
		// loaded[d] is the node at depth d+1 whose bindings scratch holds.
		loaded := make([]int32, len(b.levels))
		for d := range loaded {
			loaded[d] = -1
		}
		for n := frontierLo; n < frontierHi; n++ {
			b.childLo = append(b.childLo, int32(len(b.parent)))
			cands := bucket
			if len(shared) > 0 {
				// Load n's path bindings into scratch. Each depth binds
				// its own columns, and consecutive frontier nodes share
				// ancestors, so the walk stops at the first ancestor the
				// previous node's walk already loaded.
				cur := int32(n)
				for d := len(b.levels) - 1; d >= 0 && loaded[d] != cur; d-- {
					loaded[d] = cur
					a := &b.levels[d]
					p := a.pids[int(b.pat[cur])*a.ar:]
					for _, i := range a.fresh {
						scratch[b.ppos[p[i]]] = p[i]
					}
					cur = b.parent[cur]
				}
				key := scratch[attrPos[shared[0]]]
				cands = bucket[bucketOff[key]:bucketOff[key+1]]
			}
			for _, k := range cands {
				if !compatible(lv.pids[int(k)*lv.ar:], shared, attrPos, scratch) {
					continue
				}
				if len(b.parent) >= MaxNodes {
					return fmt.Errorf("targettree: join exceeds %d nodes; fall back to per-constraint repair", MaxNodes)
				}
				b.parent = append(b.parent, int32(n))
				b.pat = append(b.pat, k)
			}
		}
		if len(b.parent) == frontierHi {
			return fmt.Errorf("targettree: join is empty (incompatible independent sets)")
		}
		b.levels = append(b.levels, lv)
		frontierLo, frontierHi = frontierHi, len(b.parent)
	}
	b.childLo = append(b.childLo, int32(frontierHi))
	b.targets = frontierHi - frontierLo
	return nil
}

// compatible reports whether pattern p (provisional ids aligned with the
// level's attributes) agrees with the path bindings in scratch on every
// shared attribute.
func compatible(p []int32, shared []int, attrPos, scratch []int32) bool {
	for _, i := range shared {
		if scratch[attrPos[i]] != p[i] {
			return false
		}
	}
	return true
}

// prune drops internal nodes with no full-depth descendant (paths that
// died before reaching the last level) and compacts the survivors into
// t.nodes, preserving breadth-first order — so every node's surviving
// children stay contiguous.
func (b *builder) prune(t *Tree) {
	n := len(b.parent)
	leafLo := b.levels[len(b.levels)-1].lo
	alive := make([]bool, n)
	for i := n - 1; i >= 0; i-- {
		if i >= leafLo {
			alive[i] = true
			continue
		}
		for c := b.childLo[i]; c < b.childLo[i+1]; c++ {
			if alive[c] {
				alive[i] = true
				break
			}
		}
	}
	// before[i] counts survivors with old index < i: the new index of a
	// surviving node i, and the new start of a survivor range beginning
	// at i.
	before := make([]int32, n+1)
	for i := 0; i < n; i++ {
		before[i+1] = before[i]
		if alive[i] {
			before[i+1]++
		}
	}
	t.nodes = make([]node, 0, before[n])
	t.nodes = append(t.nodes, node{parent: -1, childLo: before[b.childLo[0]], childHi: before[b.childLo[1]]})
	for d := range b.levels {
		lv := &b.levels[d]
		hi := n
		if d+1 < len(b.levels) {
			hi = b.levels[d+1].lo
		}
		for i := lv.lo; i < hi; i++ {
			if !alive[i] {
				continue
			}
			nd := node{parent: before[b.parent[i]], boundLo: int32(len(t.bound))}
			if i < leafLo {
				nd.childLo, nd.childHi = before[b.childLo[i]], before[b.childLo[i+1]]
			}
			t.bound = lv.bound(t.bound, b.pat[i])
			nd.boundHi = int32(len(t.bound))
			t.nodes = append(t.nodes, nd)
		}
	}
}

// assignIDs renumbers the surviving provisional ids densely in (column,
// value) order, rewrites t.bound to the final ids, and resolves each value
// against dom.
func (b *builder) assignIDs(t *Tree, dom Domain) {
	// final maps provisional to final ids; −2 marks a provisional id not
	// (yet) seen on a surviving node.
	final := make([]int32, len(b.pvals))
	for i := range final {
		final[i] = -2
	}
	var used []int32
	for _, id := range t.bound {
		if final[id] == -2 {
			final[id] = -1
			used = append(used, id)
		}
	}
	slices.SortFunc(used, func(x, y int32) int {
		if d := b.ppos[x] - b.ppos[y]; d != 0 {
			return int(d)
		}
		return strings.Compare(b.pvals[x], b.pvals[y])
	})
	t.values = make([]value, len(used))
	t.colEnd = make([]int32, len(t.cols))
	for i, id := range used {
		final[id] = int32(i)
		pos := b.ppos[id]
		col := t.cols[pos]
		v := value{val: b.pvals[id], col: int32(col), pos: pos, code: -1}
		if col < len(dom.Dicts) && dom.Dicts[col] != nil {
			if c, ok := dom.Dicts[col].Code(v.val); ok {
				v.code = c
			}
		}
		if dom.Schema != nil && dom.Schema.Attr(col).Type == dataset.Numeric {
			if x, err := dataset.ParseFloat(v.val); err == nil {
				v.num, v.numOK = x, true
			}
		}
		t.values[i] = v
		t.colEnd[pos] = int32(i + 1)
	}
	for i, id := range t.bound {
		t.bound[i] = final[id]
	}
}

// fillSubtrees computes every node's sorted distinct subtree value ids,
// bottom-up: the union over its children of their bound ids and their own
// subtree ids.
func (t *Tree) fillSubtrees() {
	mark := make([]int32, len(t.values))
	for i := range mark {
		mark[i] = -1
	}
	// Children have larger indices than their parent, so a descending pass
	// sees every child's range before the parent needs it. Ranges are
	// appended in that order and addressed by (subLo, subHi).
	var tmp []int32
	for n := len(t.nodes) - 1; n >= 0; n-- {
		nd := &t.nodes[n]
		tmp = tmp[:0]
		for c := nd.childLo; c < nd.childHi; c++ {
			ch := &t.nodes[c]
			for _, r := range [2][]int32{t.bound[ch.boundLo:ch.boundHi], t.sub[ch.subLo:ch.subHi]} {
				for _, id := range r {
					if mark[id] != int32(n) {
						mark[id] = int32(n)
						tmp = append(tmp, id)
					}
				}
			}
		}
		slices.Sort(tmp)
		nd.subLo = int32(len(t.sub))
		t.sub = append(t.sub, tmp...)
		nd.subHi = int32(len(t.sub))
	}
}

// Target is a full assignment of the tree's columns.
type Target struct {
	Cols []int
	Vals []string
}

// pqItem is a search-frontier entry.
type pqItem struct {
	f     float64 // RDIST + EDIST lower bound
	rdist float64
	nd    int32
}

// search is one Nearest call's pooled scratch: the best-first frontier and
// the distance memo, memo[id] being the query's distance to value id or
// −1 while not yet computed (distances are non-negative).
type search struct {
	tr   *Tree
	sc   Scorer
	heap []pqItem
	memo []float64
}

var searchPool = sync.Pool{New: func() any { return new(search) }}

// dist returns the memoized distance of value id: each distinct (column,
// value) pair is scored once per search, however many nodes carry it.
func (s *search) dist(id int32) float64 {
	if d := s.memo[id]; d >= 0 {
		return d
	}
	v := &s.tr.values[id]
	d := s.sc.TargetDist(int(v.col), v.val, v.code, v.num, v.numOK)
	s.memo[id] = d
	return d
}

// edist is the lower bound for the columns bound strictly below node n:
// per column, the minimum distance from the query's value to any value
// occurring in the subtree, summed in ascending column order.
func (s *search) edist(n int32) float64 {
	nd := &s.tr.nodes[n]
	sub := s.tr.sub[nd.subLo:nd.subHi]
	var sum float64
	for i := 0; i < len(sub); {
		end := s.tr.colEnd[s.tr.values[sub[i]].pos]
		best := math.Inf(1)
		for ; i < len(sub) && sub[i] < end; i++ {
			// Distances are non-negative; once the column's minimum
			// reaches zero its remaining values need no scoring.
			if best > 0 {
				if d := s.dist(sub[i]); d < best {
					best = d
				}
			}
		}
		sum += best
	}
	return sum
}

// The frontier is a binary min-heap on f whose sift steps are
// container/heap's, comparison for comparison: entries with equal f leave
// in container/heap's order, which the repair outputs depend on.

func (s *search) push(it pqItem) {
	h := append(s.heap, it)
	j := len(h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].f < h[i].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	s.heap = h
}

func (s *search) pop() pqItem {
	h := s.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].f < h[j1].f {
			j = j2 // right child
		}
		if !(h[j].f < h[i].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	s.heap = h[:n]
	return it
}

// Nearest finds the target minimizing the summed attribute distance to the
// scorer's query tuple (Algorithm 5: best-first search with RDIST/EDIST
// pruning). It returns the target and its cost. Visited counts dequeued
// nodes, for the ablation benchmarks. The search polls cancel (nil =
// never) every few dozen nodes and, once it fires, returns the best
// incumbent found so far — callers that need the exact optimum must check
// cancellation themselves.
//
// Concurrent calls on one tree are safe; all search state is per call.
// Apart from the returned target's values, a search allocates nothing once
// its pooled scratch is warm.
func (tr *Tree) Nearest(sc Scorer, cancel <-chan struct{}) (Target, float64, int) {
	s := searchPool.Get().(*search)
	s.tr, s.sc = tr, sc
	if cap(s.memo) < len(tr.values) {
		s.memo = make([]float64, len(tr.values))
	}
	s.memo = s.memo[:len(tr.values)]
	for i := range s.memo {
		s.memo[i] = -1
	}
	s.heap = s.heap[:0]
	s.push(pqItem{nd: 0})
	bestCost := math.Inf(1)
	bestLeaf := int32(-1)
	visited := 0
	for len(s.heap) > 0 {
		if visited&63 == 0 && canceled(cancel) {
			break
		}
		it := s.pop()
		visited++
		if it.f >= bestCost {
			continue // lower bound can't beat the incumbent
		}
		nd := &tr.nodes[it.nd]
		if nd.childLo == nd.childHi && it.nd != 0 {
			// Leaf: RDIST is the exact cost (every column bound).
			if it.rdist < bestCost {
				bestCost = it.rdist
				bestLeaf = it.nd
			}
			continue
		}
		for c := nd.childLo; c < nd.childHi; c++ {
			ch := &tr.nodes[c]
			r := it.rdist
			for _, id := range tr.bound[ch.boundLo:ch.boundHi] {
				r += s.dist(id)
			}
			f := r + s.edist(c)
			if f < bestCost {
				s.push(pqItem{nd: c, f: f, rdist: r})
			}
		}
	}
	s.tr, s.sc = nil, nil
	searchPool.Put(s)
	if bestLeaf < 0 {
		return Target{}, math.Inf(1), visited
	}
	return tr.target(bestLeaf), bestCost, visited
}

// target materializes the assignment on the path from the root to leaf.
func (tr *Tree) target(leaf int32) Target {
	out := Target{Cols: tr.cols, Vals: make([]string, len(tr.cols))}
	for n := leaf; n > 0; n = tr.nodes[n].parent {
		nd := &tr.nodes[n]
		for _, id := range tr.bound[nd.boundLo:nd.boundHi] {
			v := &tr.values[id]
			out.Vals[v.pos] = v.val
		}
	}
	return out
}

// NearestScan is the linear-scan baseline: it materializes and scores every
// target. Used for tests and the target-tree ablation. Like Nearest, it
// stops at the best incumbent when cancel fires; the visited count reflects
// only the targets actually scored, not the full target list.
func (tr *Tree) NearestScan(t dataset.Tuple, dist DistFunc, cancel <-chan struct{}) (Target, float64, int) {
	targets := tr.All()
	bestCost := math.Inf(1)
	best := -1
	visited := 0
	for i, tg := range targets {
		if i&63 == 0 && canceled(cancel) {
			break
		}
		visited++
		var c float64
		for j, col := range tg.Cols {
			c += dist(col, t[col], tg.Vals[j])
		}
		if c < bestCost {
			bestCost = c
			best = i
		}
	}
	if best < 0 {
		return Target{}, math.Inf(1), visited
	}
	return targets[best], bestCost, visited
}

// canceled reports whether the cancel channel has fired; a nil channel
// never cancels.
func canceled(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// All materializes every target (root-to-leaf path) of the tree, in
// depth-first leaf order.
func (tr *Tree) All() []Target {
	var out []Target
	for n := 1; n < len(tr.nodes); n++ {
		if nd := &tr.nodes[n]; nd.childLo == nd.childHi {
			out = append(out, tr.target(int32(n)))
		}
	}
	return out
}

// Cols returns the sorted union of attribute columns covered by the tree.
func (tr *Tree) Cols() []int { return tr.cols }
