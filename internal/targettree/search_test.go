package targettree_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
	"ftrepair/internal/targettree"
)

// domainOf is the Domain a repair builds its trees with: cfg's schema and
// column dictionaries.
func domainOf(cfg *fd.DistConfig) targettree.Domain {
	return targettree.Domain{Schema: cfg.Schema, Dicts: cfg.Dicts}
}

// hospLevels is a realistic search fixture: levels over the distinct
// projections of a dirty generated HOSP relation for the FDs linked
// through Provider and Zip (h1, h3, h5, h9) — every noisy variant stays a
// pattern, so the join multiplies them into a few thousand targets — a
// config over the same relation, and its tuples as queries.
func hospLevels(tb testing.TB) ([]targettree.Level, *fd.DistConfig, []dataset.Tuple) {
	tb.Helper()
	clean := gen.HOSP{Seed: 3}.Generate(400)
	fds := gen.HOSPFDs(clean.Schema)
	dirty, _ := gen.Inject(clean, fds, 0.04, 4)
	var levels []targettree.Level
	for _, i := range []int{0, 2, 4, 8} {
		attrs := fds[i].Attrs()
		l := targettree.Level{Attrs: attrs}
		seen := make(map[string]bool)
		for _, t := range dirty.Tuples {
			if k := t.Key(attrs); !seen[k] {
				seen[k] = true
				l.Patterns = append(l.Patterns, t.Project(attrs))
			}
		}
		levels = append(levels, l)
	}
	return levels, fd.DefaultDistConfig(dirty), dirty.Tuples
}

// hospSearch builds the fixture's tree against the config's domain.
func hospSearch(tb testing.TB) (*targettree.Tree, *fd.DistConfig, []dataset.Tuple) {
	tb.Helper()
	levels, cfg, queries := hospLevels(tb)
	tr, err := targettree.Build(levels, domainOf(cfg))
	if err != nil {
		tb.Fatal(err)
	}
	return tr, cfg, queries
}

// TestNearestSteadyStateAllocs is the allocation gate for target search:
// once the pooled search scratch and scorer are warm, a search allocates
// only the returned target's value slice.
func TestNearestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and drops pool items; counts are meaningless")
	}
	tr, cfg, queries := hospSearch(t)
	if tr.Targets < 50 {
		t.Fatalf("fixture tree has %d targets; too small to exercise the search", tr.Targets)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		rs := cfg.AcquireRepairScorer(queries[i%len(queries)])
		tr.Nearest(rs, nil)
		rs.Release()
		i++
	})
	if allocs > 1 {
		t.Fatalf("Nearest allocates %.2f times per search, want at most 1 (the returned target)", allocs)
	}
}

// BenchmarkNearest times one nearest-target search with a pooled scorer
// over the HOSP fixture, cycling through the dirty tuples.
func BenchmarkNearest(b *testing.B) {
	tr, cfg, queries := hospSearch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := cfg.AcquireRepairScorer(queries[i%len(queries)])
		tr.Nearest(rs, nil)
		rs.Release()
	}
}

// countingScorer records every (column, value) pair a search scores
// before delegating to the real scorer.
type countingScorer struct {
	rs    *fd.RepairScorer
	calls map[scoredPair]scored
}

type scoredPair struct {
	col int
	v   string
}

type scored struct {
	code int32
	n    int
}

func (c *countingScorer) TargetDist(col int, v string, code int32, num float64, numOK bool) float64 {
	k := scoredPair{col, v}
	c.calls[k] = scored{code, c.calls[k].n + 1}
	return c.rs.TargetDist(col, v, code, num, numOK)
}

// TestNearestInternedMatchesScan runs the best-first search with the real
// RepairScorer on randomized trees whose values are partly interned in
// the config's column dictionaries and partly not — as on the streaming
// path, where appended tuples carry values the dictionaries never saw.
// Column 2 is numeric with one unparsable value and carries a confidence
// weight. The levels are sized so the tree binds columns in ascending
// order, the order NearestScan sums in, which makes costs comparable
// bitwise.
func TestNearestInternedMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "A"},
		dataset.Attribute{Name: "B"},
		dataset.Attribute{Name: "C", Type: dataset.Numeric},
		dataset.Attribute{Name: "D"},
	)
	// pools[col]: the first six values appear in the relation (interned),
	// the rest only in tree patterns and queries.
	pools := [][]string{
		{"alpha", "beta", "gamma", "delta", "omega", "kappa", "alpah", "sigma", "zeta"},
		{"Main St", "Oak Ave", "Pine Rd", "Elm St", "Lake Dr", "Hill Rd", "Main Str", "Oak Av", "Birch Ln"},
		{"10", "12", "15", "40", "7", "3.5", "12x", "11", "100"},
		{"north", "south", "east", "west", "up", "down", "nort", "sout", "middle"},
	}
	const interned = 6
	rel := dataset.NewRelation(schema)
	for r := 0; r < 40; r++ {
		tu := make(dataset.Tuple, len(pools))
		for c := range tu {
			tu[c] = pools[c][r%interned]
		}
		if err := rel.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	cfg := fd.DefaultDistConfig(rel)
	cfg.SetConfidence(2, 1.5)
	pick := func(c int) string { return pools[c][rng.Intn(len(pools[c]))] }
	// level draws exactly n distinct patterns over attrs.
	level := func(attrs []int, n int) targettree.Level {
		l := targettree.Level{Attrs: attrs}
		seen := map[string]bool{}
		for len(l.Patterns) < n {
			p := make([]string, len(attrs))
			for j, c := range attrs {
				p[j] = pick(c)
			}
			if k := fmt.Sprint(p); !seen[k] {
				seen[k] = true
				l.Patterns = append(l.Patterns, p)
			}
		}
		return l
	}
	built, planePairs, otherPairs := 0, 0, 0
	for trial := 0; trial < 200; trial++ {
		levels := []targettree.Level{
			level([]int{2, 3}, 40),
			level([]int{0, 1}, 12),
			level([]int{1, 2}, 25),
		}
		tr, err := targettree.Build(levels, domainOf(cfg))
		if err != nil {
			continue // empty join is a legal outcome of random inputs
		}
		built++
		if got := tr.Cols(); len(got) != 4 || got[0] != 0 || got[3] != 3 {
			t.Fatalf("cols = %v", got)
		}
		q := dataset.Tuple{pick(0), pick(1), pick(2), pick(3)}

		ph0, pm0 := cfg.Cache.PlaneCounters()
		cs := &countingScorer{rs: cfg.AcquireRepairScorer(q), calls: map[scoredPair]scored{}}
		tg, cost, _ := tr.Nearest(cs, nil)
		cs.rs.Release()
		ph1, pm1 := cfg.Cache.PlaneCounters()

		_, scanCost, _ := tr.NearestScan(q, cfg.RepairDist, nil)
		if math.Float64bits(cost) != math.Float64bits(scanCost) {
			t.Fatalf("trial %d: Nearest cost %v (%v), NearestScan cost %v", trial, cost, tg.Vals, scanCost)
		}
		var re float64
		for j, c := range tg.Cols {
			re += cfg.RepairDist(c, q[c], tg.Vals[j])
		}
		if math.Float64bits(re) != math.Float64bits(cost) {
			t.Fatalf("trial %d: target %v recomputes to %v, Nearest returned %v", trial, tg.Vals, re, cost)
		}

		// Every distinct pair is scored once; the plane answers exactly the
		// string pairs whose two values are interned and differ.
		wantPlane := 0
		for p, sc := range cs.calls {
			if sc.n != 1 {
				t.Fatalf("trial %d: pair %v scored %d times", trial, p, sc.n)
			}
			if p.col == 2 {
				if sc.code != -1 {
					t.Fatalf("trial %d: numeric value %q carries code %d", trial, p.v, sc.code)
				}
				continue
			}
			qa := q[p.col]
			if _, qIn := cfg.Dicts[p.col].Code(qa); qIn && sc.code >= 0 && qa != p.v {
				wantPlane++
			}
		}
		if got := int((ph1 - ph0) + (pm1 - pm0)); got != wantPlane {
			t.Fatalf("trial %d: plane lookups %d, want %d (distinct interned pairs scored)", trial, got, wantPlane)
		}
		planePairs += wantPlane
		otherPairs += len(cs.calls) - wantPlane
	}
	if built < 50 || planePairs == 0 || otherPairs == 0 {
		t.Fatalf("%d of 200 random trees built, %d plane pairs, %d other pairs: fixture exercises too little", built, planePairs, otherPairs)
	}
}

// TestNearestDomainInvariant checks that resolving tree values at Build
// changes time, not answers: the fixture searched through a tree built
// with the config's dictionaries and numeric columns returns the same
// targets and bitwise-equal costs as through a tree built with the zero
// Domain, whose every distance takes the scorer's string path.
func TestNearestDomainInvariant(t *testing.T) {
	levels, cfg, queries := hospLevels(t)
	interned, err := targettree.Build(levels, domainOf(cfg))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := targettree.Build(levels, targettree.Domain{})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries[:80] {
		rs := cfg.AcquireRepairScorer(q)
		a, ca, va := interned.Nearest(rs, nil)
		rs.Release()
		rs = cfg.AcquireRepairScorer(q)
		b, cb, vb := plain.Nearest(rs, nil)
		rs.Release()
		if math.Float64bits(ca) != math.Float64bits(cb) || !reflect.DeepEqual(a, b) || va != vb {
			t.Fatalf("query %d: interned tree %v (%v, %d visited), plain tree %v (%v, %d visited)", i, a.Vals, ca, va, b.Vals, cb, vb)
		}
	}
}
