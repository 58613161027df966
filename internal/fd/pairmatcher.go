package fd

import (
	"sync"

	"ftrepair/internal/dataset"
	"ftrepair/internal/strsim"
)

// PairMatcher evaluates the Eq-2 distance of one fixed tuple against a
// stream of candidate tuples. The hot detection loops — all-pairs ranging,
// per-bucket indexed verification, incremental candidate probing — hold one
// tuple fixed across hundreds of comparisons, so the fixed side's
// bit-parallel equivalence tables (strsim.Matcher) are built once per
// column and reused for every candidate that misses the distance plane and
// cache. Results are identical to DistConfig.DistWithin; only the kernel
// preprocessing is amortized.
//
// Matchers apply to the Levenshtein flavor only (the bit-parallel kernels
// implement unrestricted edit distance); other flavors run exactly as
// before. A PairMatcher is not safe for concurrent use: each worker
// acquires its own and releases it when the stream ends.
type PairMatcher struct {
	cfg *DistConfig
	f   *FD
	t1  dataset.Tuple
	use bool              // Levenshtein flavor: matchers apply
	mts []*strsim.Matcher // per column, bound lazily on first miss
}

var pairMatcherPool = sync.Pool{New: func() any { return new(PairMatcher) }}

// AcquirePairMatcher returns a pooled PairMatcher holding t1 fixed for the
// FD's attributes. Release it when the candidate stream is exhausted.
func (cfg *DistConfig) AcquirePairMatcher(f *FD, t1 dataset.Tuple) *PairMatcher {
	pm := pairMatcherPool.Get().(*PairMatcher)
	pm.cfg = cfg
	pm.f = f
	pm.t1 = t1
	pm.use = cfg.Edit == EditLevenshtein
	if n := cfg.Schema.Len(); cap(pm.mts) < n {
		pm.mts = make([]*strsim.Matcher, n)
	} else {
		pm.mts = pm.mts[:n]
	}
	return pm
}

// Release returns the PairMatcher and its column matchers to their pools.
func (pm *PairMatcher) Release() {
	for i, mt := range pm.mts {
		if mt != nil {
			mt.Release()
			pm.mts[i] = nil
		}
	}
	pm.cfg = nil
	pm.f = nil
	pm.t1 = nil
	pairMatcherPool.Put(pm)
}

// matcher returns the column's matcher bound to a (== t1[col]), building it
// on first use; nil when matchers do not apply to the configured flavor.
func (pm *PairMatcher) matcher(col int, a string) *strsim.Matcher {
	if !pm.use {
		return nil
	}
	mt := pm.mts[col]
	if mt == nil {
		mt = strsim.AcquireMatcher(a)
		pm.mts[col] = mt
	}
	return mt
}

// DistWithin is DistConfig.DistWithin(f, tau, t1, t2) with the fixed side's
// prebuilt tables.
func (pm *PairMatcher) DistWithin(tau float64, t2 dataset.Tuple) (float64, bool) {
	return pm.cfg.distWithin(pm.f, tau, pm.t1, t2, pm)
}

// Dist is DistConfig.Dist(f, t1, t2) with the fixed side's prebuilt tables.
func (pm *PairMatcher) Dist(t2 dataset.Tuple) float64 {
	var dl, dr float64
	for _, c := range pm.f.LHS {
		dl += pm.attrDist(c, t2)
	}
	for _, c := range pm.f.RHS {
		dr += pm.attrDist(c, t2)
	}
	return pm.cfg.WL*dl + pm.cfg.WR*dr
}

// RepairDist is DistConfig.RepairDist(col, t1[col], t2[col]) with the fixed
// side's prebuilt tables.
func (pm *PairMatcher) RepairDist(col int, t2 dataset.Tuple) float64 {
	d := pm.attrDist(col, t2)
	if pm.cfg.Conf != nil {
		d *= pm.cfg.Conf[col]
	}
	return d
}

func (pm *PairMatcher) attrDist(col int, t2 dataset.Tuple) float64 {
	a, b := pm.t1[col], t2[col]
	if a == b {
		return 0
	}
	var mt *strsim.Matcher
	if pm.cfg.Schema.Attr(col).Type != dataset.Numeric {
		mt = pm.matcher(col, a)
	}
	return pm.cfg.attrDist(col, a, b, mt)
}

// RepairScorer evaluates per-attribute repair costs of one fixed tuple
// against streamed repair candidates — the target-tree searches, which
// score the repaired tuple's value against candidate values column by
// column. It reuses the fixed side's bit-parallel tables on cache misses,
// and its code-aware entry point TargetDist resolves the fixed tuple's
// dictionary code and parsed number once per column, so candidates the
// tree already resolved cost a plane load or a subtraction. Results are
// identical to RepairDist.
//
// Not safe for concurrent use; acquire one per scan and release it after.
type RepairScorer struct {
	cfg *DistConfig
	t   dataset.Tuple
	use bool
	mts []*strsim.Matcher
	// qs[col] is t[col] resolved for TargetDist on first use.
	qs []queryCol
	// planeHits and planeMisses tally TargetDist's plane lookups; Release
	// adds them to the cache's counters, so concurrent searches do not
	// contend on the shared atomics per lookup.
	planeHits, planeMisses uint64
}

// queryCol is the fixed tuple's value at one column as TargetDist reads
// it: parsed when the column is numeric, else its code in the column's
// distance plane (plane nil when the value or the column is not interned).
type queryCol struct {
	resolved bool
	numeric  bool
	numOK    bool
	num      float64
	plane    *distPlane
	code     int32
}

var repairScorerPool = sync.Pool{New: func() any { return new(RepairScorer) }}

// AcquireRepairScorer returns a pooled scorer holding t fixed on the left.
func (cfg *DistConfig) AcquireRepairScorer(t dataset.Tuple) *RepairScorer {
	rs := repairScorerPool.Get().(*RepairScorer)
	rs.cfg = cfg
	rs.t = t
	rs.use = cfg.Edit == EditLevenshtein
	n := cfg.Schema.Len()
	if cap(rs.mts) < n {
		rs.mts = make([]*strsim.Matcher, n)
		rs.qs = make([]queryCol, n)
	} else {
		rs.mts = rs.mts[:n]
		rs.qs = rs.qs[:n]
	}
	return rs
}

// Release flushes the scorer's plane tallies and returns it and its column
// matchers to their pools.
func (rs *RepairScorer) Release() {
	if rs.planeHits != 0 || rs.planeMisses != 0 {
		rs.cfg.Cache.planeHits.Add(rs.planeHits)
		rs.cfg.Cache.planeMisses.Add(rs.planeMisses)
		rs.planeHits, rs.planeMisses = 0, 0
	}
	for i, mt := range rs.mts {
		if mt != nil {
			mt.Release()
			rs.mts[i] = nil
		}
	}
	clear(rs.qs)
	rs.cfg = nil
	rs.t = nil
	repairScorerPool.Put(rs)
}

// matcher returns the column's matcher bound to the fixed value a ==
// t[col], building it on first use.
func (rs *RepairScorer) matcher(col int, a string) *strsim.Matcher {
	mt := rs.mts[col]
	if mt == nil {
		mt = strsim.AcquireMatcher(a)
		rs.mts[col] = mt
	}
	return mt
}

// RepairDist is DistConfig.RepairDist with the fixed tuple's prebuilt
// tables; it has the tree scans' DistFunc shape.
func (rs *RepairScorer) RepairDist(col int, a, b string) float64 {
	var mt *strsim.Matcher
	if rs.use && a != b && a == rs.t[col] && rs.cfg.Schema.Attr(col).Type != dataset.Numeric {
		mt = rs.matcher(col, a)
	}
	d := rs.cfg.attrDist(col, a, b, mt)
	if rs.cfg.Conf != nil {
		d *= rs.cfg.Conf[col]
	}
	return d
}

// TargetDist is RepairDist(col, t[col], b) for a candidate value b whose
// code in cfg.Dicts[col] is cb (−1 when not interned) and whose parsed
// number is num (valid when numOK) — the shape of the target tree's
// Scorer. Numeric pairs that both parse compare as numbers without
// re-parsing; interned string pairs read the column's distance plane by
// code, with no string hashing. Every other pair takes RepairDist.
func (rs *RepairScorer) TargetDist(col int, b string, cb int32, num float64, numOK bool) float64 {
	q := rs.query(col)
	a := rs.t[col]
	var d float64
	switch {
	case q.numeric && q.numOK && numOK:
		if a != b {
			d = strsim.Euclidean(q.num, num, rs.cfg.Spans[col])
		}
	case q.plane != nil && cb >= 0:
		if q.code != cb {
			d = rs.planeDist(q, col, cb, a, b)
		}
	default:
		return rs.RepairDist(col, a, b)
	}
	if rs.cfg.Conf != nil {
		d *= rs.cfg.Conf[col]
	}
	return d
}

// query resolves t[col] for TargetDist once per scorer.
func (rs *RepairScorer) query(col int) *queryCol {
	q := &rs.qs[col]
	if q.resolved {
		return q
	}
	cfg := rs.cfg
	a := rs.t[col]
	*q = queryCol{resolved: true, code: -1}
	if cfg.Schema.Attr(col).Type == dataset.Numeric {
		q.numeric = true
		if x, err := dataset.ParseFloat(a); err == nil {
			q.num, q.numOK = x, true
		}
		return q
	}
	if cfg.Cache == nil || col >= len(cfg.Dicts) {
		return q
	}
	// The tree's codes come from cfg.Dicts; a plane attached over other
	// dictionaries cannot answer them.
	if p := cfg.Cache.plane(col, cfg.Edit); p != nil && p.dict == cfg.Dicts[col] {
		if c, ok := p.dict.Code(a); ok {
			q.plane, q.code = p, c
		}
	}
	return q
}

// planeDist is DistConfig.planeDist for the fixed value a (code q.code)
// with the hit or miss tallied on the scorer; the matcher is only built
// when the pair misses.
func (rs *RepairScorer) planeDist(q *queryCol, col int, cb int32, a, b string) float64 {
	if d, ok := q.plane.exact(q.code, cb); ok {
		rs.planeHits++
		return d
	}
	rs.planeMisses++
	var mt *strsim.Matcher
	if rs.use {
		mt = rs.matcher(col, a)
	}
	return rs.cfg.planeFill(q.plane, q.code, cb, a, b, mt)
}
