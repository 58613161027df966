package repair

import (
	"fmt"
	"slices"
	"strings"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
)

// Algorithm names one of the paper's repair algorithms (Table 2). It is
// the single dispatch point every entry point shares: the library facade,
// the ftrepair CLI, repaird jobs and sessions, and the incremental engine.
type Algorithm string

// The five algorithms of the paper (Table 2). The names carry an Algo
// prefix because the bare names are the algorithms' entry functions.
const (
	// AlgoExactS: expansion-based optimal repair for a single FD (§3.1).
	AlgoExactS Algorithm = "ExactS"
	// AlgoGreedyS: greedy repair for a single FD (§3.2).
	AlgoGreedyS Algorithm = "GreedyS"
	// AlgoExactM: optimal repair for multiple FDs over joined maximal
	// independent sets (§4.2).
	AlgoExactM Algorithm = "ExactM"
	// AlgoApproM: per-FD greedy repair joined into targets (§4.3).
	AlgoApproM Algorithm = "ApproM"
	// AlgoGreedyM: joint greedy repair with cross-FD synchronization (§4.4).
	AlgoGreedyM Algorithm = "GreedyM"
)

// Algorithms lists every algorithm in presentation order.
func Algorithms() []Algorithm {
	return []Algorithm{AlgoExactS, AlgoGreedyS, AlgoExactM, AlgoApproM, AlgoGreedyM}
}

// ParseAlgorithm maps a user-supplied name to its algorithm: surrounding
// space and case are ignored, and the empty name means GreedyM. An
// unknown name comes back trimmed but otherwise as given, so Check (and
// Run) reject it with the one error every entry point reports.
func ParseAlgorithm(name string) Algorithm {
	name = strings.TrimSpace(name)
	if name == "" {
		return AlgoGreedyM
	}
	for _, a := range Algorithms() {
		if strings.EqualFold(name, string(a)) {
			return a
		}
	}
	return Algorithm(name)
}

// Check reports whether a can repair set: it rejects unknown algorithms
// and enforces the one-FD rule of the single-FD algorithms (§3).
func (a Algorithm) Check(set *fd.Set) error {
	if !slices.Contains(Algorithms(), a) {
		return fmt.Errorf("repair: unknown algorithm %q", string(a))
	}
	if (a == AlgoExactS || a == AlgoGreedyS) && len(set.FDs) != 1 {
		return fmt.Errorf("repair: %s repairs a single FD, set has %d", a, len(set.FDs))
	}
	return nil
}

// Run checks algo against set and computes an FT-consistent, closed-world
// repair of rel with it. The input relation is never modified.
func Run(rel *dataset.Relation, set *fd.Set, cfg *fd.DistConfig, algo Algorithm, opts Options) (*Result, error) {
	if err := algo.Check(set); err != nil {
		return nil, err
	}
	switch algo {
	case AlgoExactS:
		return ExactS(rel, set.FDs[0], cfg, set.Tau[0], opts)
	case AlgoGreedyS:
		return GreedyS(rel, set.FDs[0], cfg, set.Tau[0], opts)
	case AlgoExactM:
		return ExactM(rel, set, cfg, opts)
	case AlgoApproM:
		return ApproM(rel, set, cfg, opts)
	default:
		return GreedyM(rel, set, cfg, opts)
	}
}
