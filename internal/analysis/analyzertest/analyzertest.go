// Package analyzertest runs an analyzer over a testdata package and checks
// its diagnostics against // want annotations, in the style of
// golang.org/x/tools/go/analysis/analysistest (stdlib-only, so it works in
// the offline build environment).
//
// A source line expecting diagnostics carries a trailing comment:
//
//	if a == b { // want `compares floats exactly`
//
// Each back-quoted or double-quoted string is a regular expression that
// must match the message of one diagnostic reported on that line; lines
// without annotations must produce no diagnostics.
//
// The harness applies //lint:ignore suppression exactly as cmd/repairlint
// does: a diagnostic covered by a well-formed directive for its analyzer is
// dropped before matching, so fixtures prove both that an analyzer fires
// and that its findings can be suppressed with a justified directive.
//
// Fixtures may span multiple files (every non-test .go file in dir is one
// package) and may import sibling fixture packages by a path relative to
// dir's parent — see load.Dir — for cross-package cases.
package analyzertest

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ftrepair/internal/analysis"
	"ftrepair/internal/analysis/load"
)

// wantRE captures the quoted expectations of a // want comment.
var wantRE = regexp.MustCompile("`[^`]*`|\"[^\"]*\"")

// Run loads the package in dir, applies the analyzer, and reports any
// mismatch between diagnostics and // want annotations as test failures.
func Run(t *testing.T, analyzer *analysis.Analyzer, dir string) {
	t.Helper()
	pkg, err := load.Dir(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Fatalf("type error in %s: %v", dir, terr)
	}

	wants := collectWants(t, pkg)
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer: analyzer,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Report:   func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := analyzer.Run(pass); err != nil {
		t.Fatalf("%s failed on %s: %v", analyzer.Name, dir, err)
	}

	// Drop suppressed diagnostics the same way the driver does, so
	// fixtures can carry //lint:ignore cases.
	ignores := analysis.ParseIgnores(pkg.Fset, pkg.Files)
	kept := diags[:0]
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		if ignores.Suppressed(pos.Filename, pos.Line, analyzer.Name) == nil {
			kept = append(kept, d)
		}
	}
	diags = kept

	matched := make([]bool, len(wants))
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		found := false
		for i, w := range wants {
			if matched[i] || w.key != key {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s: no diagnostic matching %q", w.key, w.re)
		}
	}
}

type want struct {
	key string // "filename:line"
	re  *regexp.Regexp
}

// collectWants extracts every // want annotation of the package, keyed by
// the line the comment sits on.
func collectWants(t *testing.T, pkg *load.Package) []want {
	t.Helper()
	var wants []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range wantRE.FindAllString(text[idx+len("want "):], -1) {
					expr := q[1 : len(q)-1]
					if q[0] == '"' {
						if unq, err := strconv.Unquote(q); err == nil {
							expr = unq
						}
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
					}
					wants = append(wants, want{key: fmt.Sprintf("%s:%d", pos.Filename, pos.Line), re: re})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool { return wants[i].key < wants[j].key })
	return wants
}
