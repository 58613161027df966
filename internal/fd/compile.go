package fd

import (
	"fmt"

	"ftrepair/internal/dataset"
)

// Run defaults of a repair: w_l = 0.7, w_r = 0.3, tau = 0.3 = w_r * |Y|.
// At this setting every classic FD violation is also an FT-violation
// (Theorem 1 boundary), single-character typos sit far below the threshold,
// and the generated workloads keep legitimate key values separated above
// it. The ftrepair CLI flags and repaird's zero values both read these;
// DefaultWL/DefaultWR are the paper's own 0.5/0.5 split.
const (
	RunWL  = 0.7
	RunWR  = 0.3
	RunTau = 0.3
)

// Compile turns dependency specs like "City,Street -> District" into a
// constraint set over rel: it parses every spec against rel's schema,
// builds the distance model with weights wl/wr, and gives each FD the
// threshold tau, or with autoTau the one SelectTau picks (tau is its
// fallback). Every entry point that accepts FD specs compiles them here.
func Compile(rel *dataset.Relation, specs []string, tau float64, autoTau bool, wl, wr float64) (*Set, *DistConfig, error) {
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("fd: at least one FD is required")
	}
	fds := make([]*FD, len(specs))
	for i, spec := range specs {
		f, err := Parse(rel.Schema, spec)
		if err != nil {
			return nil, nil, err
		}
		fds[i] = f
	}
	cfg, err := NewDistConfig(rel, wl, wr)
	if err != nil {
		return nil, nil, err
	}
	taus := make([]float64, len(fds))
	for i, f := range fds {
		taus[i] = tau
		if autoTau {
			taus[i] = SelectTau(rel, f, cfg, TauOptions{Fallback: tau})
		}
	}
	set, err := NewSet(fds, taus...)
	if err != nil {
		return nil, nil, err
	}
	return set, cfg, nil
}
