package repair_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/eval"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
	"ftrepair/internal/ledger"
	"ftrepair/internal/repair"
)

// goldenInstance loads a fixed-seed generated relation the way the ftrepair
// CLI does: the dirty instance (4% injected noise) is rendered to CSV and
// read back with the generator's column types as the type spec, with the
// columns named in asString declared string. The FDs are re-bound to the
// loaded schema; weights and threshold are the benchmark defaults.
func goldenInstance(t *testing.T, name string, n int, seed int64, asString string) (*dataset.Relation, *fd.Set) {
	t.Helper()
	var clean *dataset.Relation
	var fds []*fd.FD
	switch name {
	case "hosp":
		clean = gen.HOSP{Seed: seed}.Generate(n)
		fds = gen.HOSPFDs(clean.Schema)
	case "tax":
		clean = gen.Tax{Seed: seed}.Generate(n)
		fds = gen.TaxFDs(clean.Schema)
	}
	dirty, _ := gen.Inject(clean, fds, 0.04, seed+1)
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, dirty); err != nil {
		t.Fatal(err)
	}
	types := make([]string, clean.Schema.Len())
	for i := range types {
		types[i] = "string"
		if a := clean.Schema.Attr(i); a.Type == dataset.Numeric && a.Name != asString {
			types[i] = "numeric"
		}
	}
	rel, err := dataset.ReadCSV(&buf, strings.Join(types, ","))
	if err != nil {
		t.Fatal(err)
	}
	names := func(cols []int) []string {
		out := make([]string, len(cols))
		for i, c := range cols {
			out[i] = clean.Schema.Attr(c).Name
		}
		return out
	}
	bound := make([]*fd.FD, len(fds))
	for i, f := range fds {
		if bound[i], err = fd.New(rel.Schema, f.Name, names(f.LHS), names(f.RHS)); err != nil {
			t.Fatal(err)
		}
	}
	set, err := fd.NewSet(bound, eval.BenchTau)
	if err != nil {
		t.Fatal(err)
	}
	return rel, set
}

// TestGoldenRepairsAcrossWorkers pins the SHA-256 of the repaired CSV and
// the ledger run root of two fixed-seed instances — HOSP under GreedyM and
// Tax (Rate declared string) under ApproM — at several worker counts. The
// pinned values were captured from the string-keyed target tree that the
// flat, code-keyed layout replaced, so any change to target search that
// moves a single repaired cell or ledger byte fails here.
func TestGoldenRepairsAcrossWorkers(t *testing.T) {
	cases := []struct {
		name, dataset, asString string
		seed                    int64
		algo                    multiAlgo
		csvSHA, runRoot         string
	}{
		{
			name: "hosp-greedym", dataset: "hosp", seed: 7, algo: repair.GreedyM,
			csvSHA:  "1628459d0c522c57bc8d529224c7a3e1acbc5b7fecc80cecf564254f7ba3c231",
			runRoot: "42b25e986f5a19717442f57ad894dbb3b228c95761ceb7ef9ead67fb6588506b",
		},
		{
			name: "tax-approm", dataset: "tax", asString: "Rate", seed: 11, algo: repair.ApproM,
			csvSHA:  "50562072baf2cc8ae336920faf2f7cfbb926239da54d8c554db32e954a2f3b8f",
			runRoot: "89714072009ac95897893a78e422c698af4ff85f686d3dbb17254bf904ab259d",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rel, set := goldenInstance(t, tc.dataset, 300, tc.seed, tc.asString)
			for _, parallel := range []int{1, 2, 4} {
				cfg, err := fd.NewDistConfig(rel, eval.BenchWL, eval.BenchWR)
				if err != nil {
					t.Fatal(err)
				}
				led := ledger.New()
				res, err := tc.algo(rel, set, cfg, repair.Options{Parallel: parallel, Ledger: led})
				if err != nil {
					t.Fatalf("Parallel=%d: %v", parallel, err)
				}
				if len(res.Changed) == 0 || res.Stats["treeVisited"] == 0 {
					t.Fatalf("Parallel=%d: %d cells changed, %d tree nodes visited; instance too clean to pin target search",
						parallel, len(res.Changed), res.Stats["treeVisited"])
				}
				var out bytes.Buffer
				if err := dataset.WriteCSV(&out, res.Repaired); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(out.Bytes())
				if got := hex.EncodeToString(sum[:]); got != tc.csvSHA {
					t.Errorf("Parallel=%d: repaired CSV sha256 %s, want %s", parallel, got, tc.csvSHA)
				}
				if got := led.RunRootHex(); got != tc.runRoot {
					t.Errorf("Parallel=%d: ledger run root %s, want %s", parallel, got, tc.runRoot)
				}
			}
		})
	}
}
