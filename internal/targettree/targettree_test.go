package targettree_test

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
	"ftrepair/internal/targettree"
)

// paperLevels returns the Fig-4 inputs: the chosen independent sets of phi2
// and phi3 over the Citizens schema (City=3, Street=4, District=5, State=6).
func paperLevels() []targettree.Level {
	return []targettree.Level{
		{ // phi3: City,Street -> District
			Attrs: []int{3, 4, 5},
			Patterns: [][]string{
				{"New York", "Main", "Manhattan"},
				{"New York", "Western", "Queens"},
				{"Boston", "Main", "Financial"},
				{"Boston", "Arlingto", "Brookside"},
			},
		},
		{ // phi2: City -> State
			Attrs: []int{3, 6},
			Patterns: [][]string{
				{"New York", "NY"},
				{"Boston", "MA"},
			},
		},
	}
}

// funcScorer adapts a query tuple and a plain distance function to
// targettree.Scorer, ignoring the codes and parsed numbers Build resolved.
type funcScorer struct {
	t    dataset.Tuple
	dist targettree.DistFunc
}

func (s *funcScorer) TargetDist(col int, v string, _ int32, _ float64, _ bool) float64 {
	return s.dist(col, s.t[col], v)
}

func citizensDist() targettree.DistFunc {
	dirty, _ := gen.Citizens()
	cfg := fd.DefaultDistConfig(dirty)
	return cfg.AttrDist
}

func TestBuildPaperTree(t *testing.T) {
	tr, err := targettree.Build(paperLevels(), targettree.Domain{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Targets != 4 {
		t.Fatalf("targets = %d, want 4", tr.Targets)
	}
	if got := tr.Cols(); !reflect.DeepEqual(got, []int{3, 4, 5, 6}) {
		t.Fatalf("cols = %v", got)
	}
	all := tr.All()
	if len(all) != 4 {
		t.Fatalf("All = %d targets", len(all))
	}
	// Every target joins a phi2 pattern with a compatible phi3 pattern.
	var rendered []string
	for _, tg := range all {
		rendered = append(rendered, tg.Vals[0]+"|"+tg.Vals[1]+"|"+tg.Vals[2]+"|"+tg.Vals[3])
	}
	sort.Strings(rendered)
	want := []string{
		"Boston|Arlingto|Brookside|MA",
		"Boston|Main|Financial|MA",
		"New York|Main|Manhattan|NY",
		"New York|Western|Queens|NY",
	}
	if !reflect.DeepEqual(rendered, want) {
		t.Fatalf("targets = %v", rendered)
	}
}

func TestNearestExample14(t *testing.T) {
	// Example 14: tuple t4 = (New York, Western, Queens, MA) resolves to
	// (New York, Western, Queens, NY): only State changes.
	tr, err := targettree.Build(paperLevels(), targettree.Domain{})
	if err != nil {
		t.Fatal(err)
	}
	dirty, _ := gen.Citizens()
	dist := citizensDist()
	t4 := dirty.Tuples[3]
	tg, cost, visited := tr.Nearest(&funcScorer{t4, dist}, nil)
	if tg.Vals[0] != "New York" || tg.Vals[1] != "Western" || tg.Vals[2] != "Queens" || tg.Vals[3] != "NY" {
		t.Fatalf("nearest = %v", tg.Vals)
	}
	// Cost: only State differs, dist(MA, NY) = 1 (two edits over two runes).
	if math.Abs(cost-1) > 1e-9 {
		t.Fatalf("cost = %v", cost)
	}
	if visited <= 0 {
		t.Fatal("no nodes visited")
	}
	// t5 = (Boston, Main, Manhattan, NY) resolves to the Manhattan target:
	// repairing City is cheapest and fixes both FDs (Example 3).
	t5 := dirty.Tuples[4]
	tg5, _, _ := tr.Nearest(&funcScorer{t5, dist}, nil)
	if tg5.Vals[0] != "New York" || tg5.Vals[2] != "Manhattan" {
		t.Fatalf("t5 nearest = %v", tg5.Vals)
	}
}

func TestNearestMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vals := []string{"alpha", "beta", "gamma", "delta", "omega"}
	dist := func(col int, a, b string) float64 {
		if a == b {
			return 0
		}
		// Deterministic pseudo-distance independent of call order.
		h := 0
		for _, r := range a + "|" + b {
			h = h*31 + int(r)
		}
		if h < 0 {
			h = -h
		}
		return float64(h%100)/100 + 0.01
	}
	for trial := 0; trial < 25; trial++ {
		// Random levels over columns {0,1},{1,2},{2,3}: chained overlaps.
		mk := func(attrs []int, n int) targettree.Level {
			l := targettree.Level{Attrs: attrs}
			seen := map[string]bool{}
			for i := 0; i < n; i++ {
				p := make([]string, len(attrs))
				for j := range p {
					p[j] = vals[rng.Intn(len(vals))]
				}
				k := p[0] + "," + p[len(p)-1]
				if seen[k] {
					continue
				}
				seen[k] = true
				l.Patterns = append(l.Patterns, p)
			}
			return l
		}
		levels := []targettree.Level{
			mk([]int{0, 1}, 4),
			mk([]int{1, 2}, 5),
			mk([]int{2, 3}, 4),
		}
		tr, err := targettree.Build(levels, targettree.Domain{})
		if err != nil {
			continue // empty join is a legal outcome of random inputs
		}
		tuple := dataset.Tuple{
			vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))],
			vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))],
		}
		tgFast, costFast, visitedFast := tr.Nearest(&funcScorer{tuple, dist}, nil)
		tgSlow, costSlow, scanned := tr.NearestScan(tuple, dist, nil)
		if math.Abs(costFast-costSlow) > 1e-9 {
			t.Fatalf("trial %d: Nearest = %v (%v), scan = %v (%v)", trial, costFast, tgFast.Vals, costSlow, tgSlow.Vals)
		}
		if visitedFast <= 0 || scanned != tr.Targets {
			t.Fatalf("trial %d: counters visited=%d scanned=%d targets=%d", trial, visitedFast, scanned, tr.Targets)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := targettree.Build(nil, targettree.Domain{}); err == nil {
		t.Fatal("no levels accepted")
	}
	if _, err := targettree.Build([]targettree.Level{{Attrs: nil}}, targettree.Domain{}); err == nil {
		t.Fatal("empty attrs accepted")
	}
	if _, err := targettree.Build([]targettree.Level{{Attrs: []int{0}, Patterns: [][]string{{"a", "b"}}}}, targettree.Domain{}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	// Incompatible levels: shared column with disjoint values.
	_, err := targettree.Build([]targettree.Level{
		{Attrs: []int{0}, Patterns: [][]string{{"x"}}},
		{Attrs: []int{0, 1}, Patterns: [][]string{{"y", "z"}}},
	}, targettree.Domain{})
	if err == nil {
		t.Fatal("empty join accepted")
	}
}

func TestDeadBranchPruned(t *testing.T) {
	// Level 1 pattern "b" joins level 2, but then dies at level 3: the
	// (b,?) branch must be pruned and only targets through "a" remain.
	levels := []targettree.Level{
		{Attrs: []int{0}, Patterns: [][]string{{"a"}, {"b"}}},
		{Attrs: []int{0, 1}, Patterns: [][]string{{"a", "1"}, {"b", "2"}}},
		{Attrs: []int{1, 2}, Patterns: [][]string{{"1", "x"}}},
	}
	tr, err := targettree.Build(levels, targettree.Domain{})
	if err != nil {
		t.Fatal(err)
	}
	all := tr.All()
	if len(all) != 1 {
		t.Fatalf("targets = %v", all)
	}
	if all[0].Vals[0] != "a" || all[0].Vals[2] != "x" {
		t.Fatalf("target = %v", all[0].Vals)
	}
	// Nearest on the pruned tree still works.
	dist := func(col int, a, b string) float64 {
		if a == b {
			return 0
		}
		return 1
	}
	_, cost, _ := tr.Nearest(&funcScorer{dataset.Tuple{"a", "1", "x"}, dist}, nil)
	if cost != 0 {
		t.Fatalf("cost = %v", cost)
	}
}

func TestSingleLevelTree(t *testing.T) {
	levels := []targettree.Level{
		{Attrs: []int{2, 5}, Patterns: [][]string{{"p", "q"}, {"r", "s"}}},
	}
	tr, err := targettree.Build(levels, targettree.Domain{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Targets != 2 {
		t.Fatalf("targets = %d", tr.Targets)
	}
	dist := func(col int, a, b string) float64 {
		if a == b {
			return 0
		}
		return 1
	}
	tg, cost, _ := tr.Nearest(&funcScorer{dataset.Tuple{"", "", "r", "", "", "zzz"}, dist}, nil)
	if tg.Vals[0] != "r" || cost != 1 {
		t.Fatalf("nearest = %v cost %v", tg.Vals, cost)
	}
}

func TestNearestCanceled(t *testing.T) {
	tr, err := targettree.Build(paperLevels(), targettree.Domain{})
	if err != nil {
		t.Fatal(err)
	}
	dirty, _ := gen.Citizens()
	dist := citizensDist()
	cancel := make(chan struct{})
	close(cancel)
	// A fired channel stops the search before any node is dequeued, so no
	// incumbent exists and the cost is +Inf.
	if _, cost, _ := tr.Nearest(&funcScorer{dirty.Tuples[3], dist}, cancel); !math.IsInf(cost, 1) {
		t.Fatalf("canceled Nearest returned cost %v, want +Inf", cost)
	}
	if _, cost, _ := tr.NearestScan(dirty.Tuples[3], dist, cancel); !math.IsInf(cost, 1) {
		t.Fatalf("canceled NearestScan returned cost %v, want +Inf", cost)
	}
}
