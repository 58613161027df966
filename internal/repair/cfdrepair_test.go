package repair_test

import (
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/obs"
	"ftrepair/internal/repair"
)

func TestNewCFDSetValidation(t *testing.T) {
	schema := dataset.Strings("A", "B")
	c, err := fd.ParseCFD(schema, "A->B")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repair.NewCFDSet(nil, 0.3); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := repair.NewCFDSet([]*fd.CFD{c}, 0.1, 0.2); err == nil {
		t.Fatal("mismatched thresholds accepted")
	}
	s, err := repair.NewCFDSet([]*fd.CFD{c, c}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Tau) != 2 || s.Tau[1] != 0.3 {
		t.Fatalf("broadcast taus = %v", s.Tau)
	}
}

// mixedCFDInstance is a 12-row relation with one constant CFD (nested
// GreedyS over its matching rows) and one plain FD (nested GreedyM).
func mixedCFDInstance(t *testing.T) (*dataset.Relation, *repair.CFDSet, *fd.DistConfig) {
	t.Helper()
	schema := dataset.Strings("City", "AC", "State")
	// The (Boston,617,MA) pattern needs enough witnesses that absorbing it
	// into the typo spelling is more expensive than repairing the RI
	// conflict — the cost model trades the two by multiplicity.
	rel, err := dataset.FromRows(schema, [][]string{
		{"NYC", "212", "NY"},
		{"NYC", "212", "NY"},
		{"NYC", "212", "CA"}, // violates the constant row NYC -> NY
		{"Boston", "617", "MA"},
		{"Boston", "617", "MA"},
		{"Boston", "617", "MA"},
		{"Boston", "617", "MA"},
		{"Boston", "617", "MA"},
		{"Boston", "617", "MA"},
		{"Boston", "617", "MA"},
		{"Boston", "617", "RI"}, // plain-FD violation: same city+AC, diff state
		{"Bostom", "617", "MA"}, // typo caught by the FT semantics
	})
	if err != nil {
		t.Fatal(err)
	}
	constant, err := fd.ParseCFD(schema, "City -> State | NYC, NY")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := fd.ParseCFD(schema, "City, AC -> State")
	if err != nil {
		t.Fatal(err)
	}
	s, err := repair.NewCFDSet([]*fd.CFD{constant, plain}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := fd.NewDistConfig(rel, 0.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return rel, s, cfg
}

func TestRepairCFDSetMixed(t *testing.T) {
	rel, s, cfg := mixedCFDInstance(t)
	res, err := repair.RepairCFDSet(rel, s, cfg, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired.Tuples[2][2] != "NY" {
		t.Errorf("constant row not enforced: %v", res.Repaired.Tuples[2])
	}
	if res.Repaired.Tuples[10][2] != "MA" {
		t.Errorf("plain-FD violation unrepaired: %v", res.Repaired.Tuples[10])
	}
	if res.Repaired.Tuples[11][0] != "Boston" {
		t.Errorf("typo unrepaired: %v", res.Repaired.Tuples[11])
	}
	if err := repair.VerifyCFDs(res.Repaired, s.CFDs); err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "CFDSet" || len(res.Changed) == 0 {
		t.Fatalf("result metadata: %+v", res.Algorithm)
	}
	// Input untouched.
	if rel.Tuples[2][2] != "CA" {
		t.Fatal("input mutated")
	}
}

// TestRepairCFDSetFlushesOnce pins the registry view of a CFD run. The
// nested GreedyM/GreedyS runs flush their own counters, so the registry
// must gain exactly what the returned Stats report: the outer run may not
// flush the same distance-cache traffic a second time.
func TestRepairCFDSetFlushesOnce(t *testing.T) {
	rel, s, cfg := mixedCFDInstance(t)
	counters := []struct {
		name  string
		c     *obs.Counter
		field func(repair.Stats) int
	}{
		{"distCacheHits", obs.Pipeline.DistCacheHits, func(s repair.Stats) int { return s.DistCacheHits }},
		{"distCacheMisses", obs.Pipeline.DistCacheMisses, func(s repair.Stats) int { return s.DistCacheMisses }},
		{"distPlaneHits", obs.Pipeline.DistPlaneHits, func(s repair.Stats) int { return s.DistPlaneHits }},
		{"distPlaneMisses", obs.Pipeline.DistPlaneMisses, func(s repair.Stats) int { return s.DistPlaneMisses }},
		{"setSize", obs.Pipeline.GreedySetSize, func(s repair.Stats) int { return s.SetSize }},
		{"treeVisited", obs.Pipeline.TreeVisited, func(s repair.Stats) int { return s.TreeVisited }},
	}
	before := make([]uint64, len(counters))
	for i, c := range counters {
		before[i] = c.c.Value()
	}
	res, err := repair.RepairCFDSet(rel, s, cfg, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DistCacheHits+res.Stats.DistCacheMisses == 0 {
		t.Fatalf("no distance-cache traffic reported: %+v", res.Stats)
	}
	for i, c := range counters {
		if d := int(c.c.Value() - before[i]); d != c.field(res.Stats) {
			t.Errorf("%s: registry gained %d, Stats report %d", c.name, d, c.field(res.Stats))
		}
	}
}

func TestRepairCFDSetConditionalOnly(t *testing.T) {
	schema := dataset.Strings("Plan", "Tier")
	rel, err := dataset.FromRows(schema, [][]string{
		{"gold", "3"}, {"gold", "3"}, {"gold", "2"},
		{"free", "0"}, {"free", "9"}, // unconstrained by the gold-only CFD
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := fd.ParseCFD(schema, "Plan -> Tier | gold, _")
	if err != nil {
		t.Fatal(err)
	}
	s, err := repair.NewCFDSet([]*fd.CFD{c}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := fd.NewDistConfig(rel, 0.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repair.RepairCFDSet(rel, s, cfg, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired.Tuples[2][1] != "3" {
		t.Errorf("gold conflict unrepaired: %v", res.Repaired.Tuples[2])
	}
	if res.Repaired.Tuples[4][1] != "9" {
		t.Errorf("free tuple modified: %v", res.Repaired.Tuples[4])
	}
	if err := repair.VerifyCFDs(res.Repaired, s.CFDs); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCFDsDetects(t *testing.T) {
	schema := dataset.Strings("A", "B")
	rel, _ := dataset.FromRows(schema, [][]string{{"x", "1"}, {"x", "2"}})
	c, err := fd.ParseCFD(schema, "A->B")
	if err != nil {
		t.Fatal(err)
	}
	if err := repair.VerifyCFDs(rel, []*fd.CFD{c}); err == nil {
		t.Fatal("pairwise violation missed")
	}
	cc, err := fd.ParseCFD(schema, "A -> B | x, 9")
	if err != nil {
		t.Fatal(err)
	}
	if err := repair.VerifyCFDs(rel, []*fd.CFD{cc}); err == nil {
		t.Fatal("single-tuple violation missed")
	}
	ok, _ := dataset.FromRows(schema, [][]string{{"x", "1"}, {"x", "1"}})
	if err := repair.VerifyCFDs(ok, []*fd.CFD{c}); err != nil {
		t.Fatal(err)
	}
}

func TestDetectCFDs(t *testing.T) {
	schema := dataset.Strings("City", "State")
	rel, err := dataset.FromRows(schema, [][]string{
		{"NYC", "NY"},
		{"NYC", "CA"}, // constant-row violation AND pairwise with row 0
		{"Boston", "MA"},
		{"Boston", "RI"}, // pairwise only (wildcard CFD)
	})
	if err != nil {
		t.Fatal(err)
	}
	constant, err := fd.ParseCFD(schema, "City -> State | NYC, NY")
	if err != nil {
		t.Fatal(err)
	}
	wildcard, err := fd.ParseCFD(schema, "City -> State")
	if err != nil {
		t.Fatal(err)
	}
	got := repair.DetectCFDs(rel, []*fd.CFD{constant, wildcard})
	singles, pairs := 0, 0
	for _, v := range got {
		switch len(v.Rows) {
		case 1:
			singles++
			if v.Rows[0] != 1 {
				t.Fatalf("constant violation at row %d", v.Rows[0])
			}
		case 2:
			pairs++
		}
	}
	// One constant violation (row 1); pairwise: constant CFD (0,1) and
	// wildcard CFD (0,1) + (2,3).
	if singles != 1 || pairs != 3 {
		t.Fatalf("singles=%d pairs=%d: %+v", singles, pairs, got)
	}
	// Sorted: singles first.
	if len(got[0].Rows) != 1 {
		t.Fatalf("ordering: %+v", got)
	}
	// Clean relation: nothing.
	ok, _ := dataset.FromRows(schema, [][]string{{"NYC", "NY"}, {"Boston", "MA"}})
	if vs := repair.DetectCFDs(ok, []*fd.CFD{constant, wildcard}); len(vs) != 0 {
		t.Fatalf("clean relation produced %v", vs)
	}
}
