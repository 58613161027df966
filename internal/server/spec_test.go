package server

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestHeaderRowsTypingMatchesCSV submits one relation as CSV text and as
// header+rows, with an "int" type alias and space-padded header names. Both
// forms go through the same schema builder and load step, so they must
// compile to the same schema and repair to the same result.
func TestHeaderRowsTypingMatchesCSV(t *testing.T) {
	header := []string{" City", "Zip "}
	rows := [][]string{
		{"BOSTON", "2115"}, {"BOSTON", "2115"}, {"BOSTON", "2115"}, {"BOSTN", "2115"},
		{"CHICAGO", "60601"}, {"CHICAGO", "60601"}, {"CHICAGO", "60601"}, {"CHICGO", "60601"},
	}
	var csv strings.Builder
	csv.WriteString(strings.Join(header, ",") + "\n")
	for _, r := range rows {
		csv.WriteString(strings.Join(r, ",") + "\n")
	}
	fds := []string{"City -> Zip"}
	asCSV := JobSpec{CSV: csv.String(), Types: "string,int", FDs: fds, Verify: true}
	asRows := JobSpec{Header: header, Rows: rows, Types: "string,int", FDs: fds, Verify: true}

	var schemas [2]string
	for i, spec := range []JobSpec{asCSV, asRows} {
		p, err := spec.compile()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		for c := 0; c < p.rel.Schema.Len(); c++ {
			a := p.rel.Schema.Attr(c)
			schemas[i] += a.Name + ":" + a.Type.String() + ";"
		}
	}
	if schemas[0] != schemas[1] {
		t.Fatalf("schemas differ: csv %q, rows %q", schemas[0], schemas[1])
	}
	if want := "City:string;Zip:numeric;"; schemas[0] != want {
		t.Fatalf("schema %q, want %q", schemas[0], want)
	}

	_, ts := newTestServer(t, Config{Workers: 1})
	var results [2]*JobResult
	for i, spec := range []JobSpec{asCSV, asRows} {
		v := pollJob(t, ts.URL, submitJob(t, ts.URL, spec).ID, 30*time.Second)
		if v.State != JobDone || v.Result == nil {
			t.Fatalf("spec %d: job ended %s (%s)", i, v.State, v.Error)
		}
		v.Result.ElapsedMs, v.Result.Spans = 0, nil
		results[i] = v.Result
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("results differ:\ncsv  %+v\nrows %+v", results[0], results[1])
	}
	if len(results[0].Changed) != 2 || !*results[0].FTConsistent {
		t.Fatalf("want 2 repaired cells and an FT-consistent result, got %+v", results[0])
	}
}
