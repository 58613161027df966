package repair_test

import (
	"math"
	"math/rand"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
	"ftrepair/internal/repair"
)

// phi1Fixture returns the Citizens instance with phi1 and the tau producing
// the paper's Fig-2 graph shape.
func phi1Fixture(t *testing.T) (*dataset.Relation, *dataset.Relation, *fd.FD, *fd.DistConfig, float64) {
	t.Helper()
	dirty, clean := gen.Citizens()
	f := gen.CitizensFDs(dirty.Schema)[0]
	return dirty, clean, f, fd.DefaultDistConfig(dirty), 0.2
}

func TestExactSCitizensExample8(t *testing.T) {
	dirty, clean, f, cfg, tau := phi1Fixture(t)
	res, err := repair.ExactS(dirty, f, cfg, tau, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Example 8: t6, t8 repair to (Masters,4); t9, t10 to (Bachelors,3).
	// On phi1's attributes the repaired table must match the ground truth.
	edu, lvl := dirty.Schema.MustIndex("Education"), dirty.Schema.MustIndex("Level")
	for i := range res.Repaired.Tuples {
		for _, c := range []int{edu, lvl} {
			if got, want := res.Repaired.Tuples[i][c], clean.Tuples[i][c]; got != want {
				t.Errorf("tuple %d attr %d = %q, want %q", i, c, got, want)
			}
		}
	}
	if len(res.Changed) != 4 {
		t.Fatalf("changed cells = %v, want 4", res.Changed)
	}
	if res.Algorithm != "ExactS" || res.Cost <= 0 || res.Stats.Vertices != 7 {
		t.Fatalf("result metadata: %+v", res)
	}
	// Input must be untouched.
	if dirty.Tuples[5][edu] != "Masers" {
		t.Fatal("ExactS mutated its input")
	}
}

func TestGreedySCitizensExample9(t *testing.T) {
	dirty, clean, f, cfg, tau := phi1Fixture(t)
	res, err := repair.GreedyS(dirty, f, cfg, tau, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	edu, lvl := dirty.Schema.MustIndex("Education"), dirty.Schema.MustIndex("Level")
	for i := range res.Repaired.Tuples {
		for _, c := range []int{edu, lvl} {
			if got, want := res.Repaired.Tuples[i][c], clean.Tuples[i][c]; got != want {
				t.Errorf("tuple %d attr %d = %q, want %q", i, c, got, want)
			}
		}
	}
}

func randomInstance(rng *rand.Rand, n int) (*dataset.Relation, *fd.FD, *fd.DistConfig) {
	cities := []string{"Boston", "Camden", "Dallas", "Austin", "Reno"}
	states := []string{"MA", "NJ", "TX", "TX", "NV"}
	schema := dataset.Strings("City", "State")
	rel := dataset.NewRelation(schema)
	for i := 0; i < n; i++ {
		k := rng.Intn(len(cities))
		city, state := cities[k], states[k]
		if rng.Intn(3) == 0 {
			b := []byte(city)
			b[rng.Intn(len(b))] = byte('a' + rng.Intn(26))
			city = string(b)
		}
		if rng.Intn(4) == 0 {
			state = states[rng.Intn(len(states))]
		}
		if err := rel.Append(dataset.Tuple{city, state}); err != nil {
			panic(err)
		}
	}
	f := fd.MustParse(schema, "City->State")
	return rel, f, fd.DefaultDistConfig(rel)
}

func TestSingleFDInvariants(t *testing.T) {
	// On random noisy instances: both algorithms produce FT-consistent,
	// closed-world-valid repairs, and ExactS never costs more than GreedyS.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		rel, f, cfg := randomInstance(rng, 25)
		const tau = 0.3
		set, err := fd.NewSet([]*fd.FD{f}, tau)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := repair.ExactS(rel, f, cfg, tau, repair.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		greedy, err := repair.GreedyS(rel, f, cfg, tau, repair.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, res := range []*repair.Result{exact, greedy} {
			if err := repair.VerifyFTConsistent(res.Repaired, set, cfg); err != nil {
				t.Fatalf("trial %d %s: %v", trial, res.Algorithm, err)
			}
			if err := repair.VerifyValid(rel, res.Repaired, set); err != nil {
				t.Fatalf("trial %d %s: %v", trial, res.Algorithm, err)
			}
		}
		if exact.Cost > greedy.Cost+1e-9 {
			t.Fatalf("trial %d: exact cost %v > greedy cost %v", trial, exact.Cost, greedy.Cost)
		}
	}
}

func TestExactSOptimalAmongVertexRepairs(t *testing.T) {
	// Cross-check Theorem 2 on small instances: no assignment of excluded
	// patterns to adjacent patterns beats the ExactS cost. (Brute force
	// over maximal independent sets is covered in the mis package; here we
	// sanity-check the end-to-end cost.)
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		rel, f, cfg := randomInstance(rng, 12)
		exact, err := repair.ExactS(rel, f, cfg, 0.3, repair.Options{})
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := repair.GreedyS(rel, f, cfg, 0.3, repair.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if exact.Cost > greedy.Cost+1e-9 {
			t.Fatalf("trial %d: exact %v beaten by greedy %v", trial, exact.Cost, greedy.Cost)
		}
	}
}

func TestAlreadyConsistentIsNoop(t *testing.T) {
	schema := dataset.Strings("City", "State")
	rel, _ := dataset.FromRows(schema, [][]string{
		{"Boston", "MA"}, {"Boston", "MA"}, {"Seattle", "WA"},
	})
	f := fd.MustParse(schema, "City->State")
	cfg := fd.DefaultDistConfig(rel)
	for _, fn := range []func(*dataset.Relation, *fd.FD, *fd.DistConfig, float64, repair.Options) (*repair.Result, error){
		repair.ExactS, repair.GreedyS,
	} {
		res, err := fn(rel, f, cfg, 0.2, repair.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Changed) != 0 || res.Cost != 0 {
			t.Fatalf("consistent input repaired: %+v", res)
		}
	}
}

func TestGreedySIsolatedOnlyGraph(t *testing.T) {
	schema := dataset.Strings("City", "State")
	rel, _ := dataset.FromRows(schema, [][]string{
		{"Alpha", "A"}, {"Omega12345", "B"},
	})
	f := fd.MustParse(schema, "City->State")
	cfg := fd.DefaultDistConfig(rel)
	res, err := repair.GreedyS(rel, f, cfg, 0.1, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed) != 0 {
		t.Fatal("isolated vertices repaired")
	}
}

func TestExactSDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rel, f, cfg := randomInstance(rng, 20)
	a, err := repair.ExactS(rel, f, cfg, 0.3, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := repair.ExactS(rel, f, cfg, 0.3, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Cost-b.Cost) > 1e-12 || len(a.Changed) != len(b.Changed) {
		t.Fatal("ExactS not deterministic")
	}
	cells, err := dataset.Diff(a.Repaired, b.Repaired)
	if err != nil || len(cells) != 0 {
		t.Fatalf("repairs differ: %v %v", cells, err)
	}
}

func TestResultPartial(t *testing.T) {
	dirty, _, f, cfg, tau := func() (*dataset.Relation, *dataset.Relation, *fd.FD, *fd.DistConfig, float64) {
		d, c := gen.Citizens()
		return d, c, gen.CitizensFDs(d.Schema)[0], fd.DefaultDistConfig(d), 0.2
	}()
	res, err := repair.ExactS(dirty, f, cfg, tau, repair.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed) != 4 {
		t.Fatalf("changed = %v", res.Changed)
	}
	// Approve only the first repair.
	partial := res.Partial(dirty, res.Changed[:1])
	cells, err := dataset.Diff(dirty, partial)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0] != res.Changed[0] {
		t.Fatalf("partial applied %v", cells)
	}
	// Approving a cell the repair never proposed is a no-op.
	bogus := res.Partial(dirty, []dataset.Cell{{Row: 0, Col: 0}})
	cells, err = dataset.Diff(dirty, bogus)
	if err != nil || len(cells) != 0 {
		t.Fatalf("bogus approval applied %v %v", cells, err)
	}
}
