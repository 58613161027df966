package ftrepair_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"ftrepair"
	"ftrepair/internal/cli"
	"ftrepair/internal/fd"
	"ftrepair/internal/incr"
	"ftrepair/internal/profile"
	"ftrepair/internal/repair"
)

const parityCSV = "City,State,Zip\n" +
	"BOSTON,MA,02115\nBOSTON,MA,02115\nBOSTON,MA,02115\nBOSTN,MA,02115\n" +
	"CHICAGO,IL,60601\nCHICAGO,IL,60601\nCHICAGO,IL,60601\nCHICGO,IL,60601\n"

// TestAlgorithmEntryPointParity drives every entry point that selects an
// algorithm: the CLI's -algo, a repaird job's and a session's algorithm,
// incr.Options.Algorithm and ftrepair.Repair. Each must accept the same
// names and reject the rest with the one error repair.Algorithm.Check
// reports.
func TestAlgorithmEntryPointParity(t *testing.T) {
	service := ftrepair.NewServer(ftrepair.ServerConfig{Workers: 1})
	srv := httptest.NewServer(service.Handler())
	defer func() {
		srv.Close()
		_ = service.Shutdown(context.Background())
	}()
	post := func(path string, spec any) error {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode >= 300 {
			return errors.New(out.Error)
		}
		return nil
	}
	compile := func(fds []string) (*ftrepair.Relation, *ftrepair.Set, *ftrepair.DistConfig) {
		rel, err := profile.Load(profile.Source{CSV: strings.NewReader(parityCSV)})
		if err != nil {
			t.Fatal(err)
		}
		set, cfg, err := fd.Compile(rel, fds, fd.RunTau, false, fd.RunWL, fd.RunWR)
		if err != nil {
			t.Fatal(err)
		}
		return rel, set, cfg
	}

	// Each entry point runs algorithm name over parityCSV with fds.
	entries := []struct {
		name string
		// typed marks entry points that take an Algorithm value rather than
		// a user-supplied name, so they do not parse it.
		typed bool
		run   func(name string, fds []string) error
	}{
		{"cli", false, func(name string, fds []string) error {
			args := []string{"-in", "-", "-out", os.DevNull, "-q", "-algo", name}
			for _, f := range fds {
				args = append(args, "-fd", f)
			}
			var stdout, stderr strings.Builder
			if cli.Main(args, strings.NewReader(parityCSV), &stdout, &stderr) != 0 {
				return errors.New(stderr.String())
			}
			return nil
		}},
		{"job", false, func(name string, fds []string) error {
			return post("/v1/jobs", ftrepair.JobSpec{CSV: parityCSV, FDs: fds, Algorithm: name})
		}},
		{"session", false, func(name string, fds []string) error {
			return post("/v1/sessions", ftrepair.SessionSpec{CSV: parityCSV, FDs: fds, Algorithm: name})
		}},
		{"incr", false, func(name string, fds []string) error {
			rel, set, cfg := compile(fds)
			_, _, err := incr.NewEngine(rel, set, cfg, incr.Options{Algorithm: name})
			return err
		}},
		{"ftrepair.Repair", true, func(name string, fds []string) error {
			rel, set, cfg := compile(fds)
			_, err := ftrepair.Repair(rel, set, cfg, ftrepair.Algorithm(name), ftrepair.Options{})
			return err
		}},
	}

	oneFD := []string{"City -> State"}
	twoFDs := []string{"City -> State", "Zip -> City"}
	_, one, _ := compile(oneFD)
	_, two, _ := compile(twoFDs)
	cases := []struct {
		name, algo string
		fds        []string
		// spelled marks a user spelling that only name-taking entry points
		// parse; want is the Check error every entry point reports, and ""
		// means the run is accepted.
		spelled bool
		want    string
	}{
		{"unknown name", "bogus", oneFD, false, repair.Algorithm("bogus").Check(one).Error()},
		{"single-FD algorithm on two FDs", "GreedyS", twoFDs, false, repair.AlgoGreedyS.Check(two).Error()},
		{"canonical name", "ApproM", twoFDs, false, ""},
		{"padded mixed-case name", " approM ", twoFDs, true, ""},
	}
	for _, tc := range cases {
		for _, e := range entries {
			if e.typed && tc.spelled {
				continue
			}
			err := e.run(tc.algo, tc.fds)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s via %s: rejected: %v", tc.name, e.name, err)
			case tc.want != "" && err == nil:
				t.Errorf("%s via %s: accepted, want %q", tc.name, e.name, tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Errorf("%s via %s: error %q, want %q", tc.name, e.name, err, tc.want)
			}
		}
	}
}
