package experiments_test

import (
	"strings"
	"testing"

	"ftrepair/internal/experiments"
)

func tinyConfig() experiments.Config {
	return experiments.Config{Scale: 0.02, Seed: 7, Workloads: []string{"tax"}}
}

func TestNamesAndDescribe(t *testing.T) {
	names := experiments.Names()
	if len(names) < 16 {
		t.Fatalf("only %d experiments", len(names))
	}
	for _, want := range []string{"fig5", "fig16", "table3", "weights", "flavors", "tau", "detection", "autotau", "ablation"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("experiment %q missing from %v", want, names)
		}
		if experiments.Describe(want) == "" {
			t.Errorf("no description for %q", want)
		}
	}
	if experiments.Describe("nope") != "" {
		t.Error("description for unknown experiment")
	}
}

func TestRunUnknown(t *testing.T) {
	var sb strings.Builder
	if err := experiments.Run("nope", tinyConfig(), &sb); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestRunRejectsEmptyWorkloads: an empty -workloads list used to panic
// (ablation indexes Workloads[0]) or print a bare header and exit 0
// (detection); every experiment now refuses it with an error.
func TestRunRejectsEmptyWorkloads(t *testing.T) {
	c := tinyConfig()
	c.Workloads = nil
	for _, name := range []string{"ablation", "detection", "fig5", "table3"} {
		var sb strings.Builder
		if err := experiments.Run(name, c, &sb); err == nil {
			t.Errorf("%s: empty workload list accepted; output:\n%s", name, sb.String())
		} else if !strings.Contains(err.Error(), "no workloads") {
			t.Errorf("%s: error %q does not name the missing workloads", name, err)
		}
	}
}

func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	for _, name := range experiments.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			var sb strings.Builder
			if err := experiments.Run(name, tinyConfig(), &sb); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if sb.Len() == 0 {
				t.Fatalf("%s produced no output", name)
			}
			if !strings.Contains(sb.String(), "##") {
				t.Fatalf("%s output lacks a section header:\n%s", name, sb.String())
			}
		})
	}
}

func TestJSONFormat(t *testing.T) {
	c := tinyConfig()
	c.JSON = true
	var sb strings.Builder
	if err := experiments.Run("fig7", c, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"series"`) || !strings.Contains(sb.String(), `"precision"`) {
		t.Fatalf("JSON output:\n%s", sb.String())
	}
}
