// Package eval measures repair quality exactly as §6.1 does — precision is
// the fraction of repaired cells whose new value matches the ground truth,
// recall the fraction of erroneous cells correctly repaired — and prepares
// the benchmark instances (workload + noise + constraint configuration)
// shared by the repairbench command and the bench suite.
package eval

import (
	"fmt"
	"strings"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
)

// Quality is a precision/recall measurement.
type Quality struct {
	Precision float64
	Recall    float64
	F1        float64
	// Repaired counts cells the algorithm changed; Correct how many of
	// them now match the ground truth (fractional with partial credit);
	// Errors the injected error count.
	Repaired int
	Correct  float64
	Errors   int
}

// Options tunes the measurement.
type Options struct {
	// PartialMarker, when non-empty, grants 0.5 credit for a repaired cell
	// whose value starts with the marker and whose original value was
	// erroneous — the paper's "Metric 0.5" accounting for Llunatic's
	// variables (cells repaired to an unknown).
	PartialMarker string
}

// Evaluate compares a repair against the ground truth. clean, dirty and
// repaired must be row-aligned instances of one schema.
func Evaluate(clean, dirty, repaired *dataset.Relation, opts Options) (Quality, error) {
	repairedCells, err := dataset.Diff(dirty, repaired)
	if err != nil {
		return Quality{}, fmt.Errorf("eval: %w", err)
	}
	errorCells, err := dataset.Diff(clean, dirty)
	if err != nil {
		return Quality{}, fmt.Errorf("eval: %w", err)
	}
	wasError := make(map[dataset.Cell]bool, len(errorCells))
	for _, c := range errorCells {
		wasError[c] = true
	}
	var correct float64
	for _, c := range repairedCells {
		v := repaired.Get(c)
		switch {
		case v == clean.Get(c):
			correct++
		case opts.PartialMarker != "" && strings.HasPrefix(v, opts.PartialMarker) && wasError[c]:
			correct += 0.5
		}
	}
	q := Quality{Repaired: len(repairedCells), Correct: correct, Errors: len(errorCells)}
	if q.Repaired > 0 {
		q.Precision = correct / float64(q.Repaired)
	} else {
		q.Precision = 1
	}
	if q.Errors > 0 {
		q.Recall = correct / float64(q.Errors)
	} else {
		q.Recall = 1
	}
	if q.Precision+q.Recall > 0 {
		q.F1 = 2 * q.Precision * q.Recall / (q.Precision + q.Recall)
	}
	return q, nil
}

// Benchmark configuration: the run defaults of the CLI and repaird (see
// fd.RunWL).
const (
	BenchWL  = fd.RunWL
	BenchWR  = fd.RunWR
	BenchTau = fd.RunTau
)

// Instance is a prepared benchmark instance.
type Instance struct {
	Name       string
	Clean      *dataset.Relation
	Dirty      *dataset.Relation
	Set        *fd.Set
	Cfg        *fd.DistConfig
	Injections []gen.Injection
}

// Setup selects a benchmark instance.
type Setup struct {
	// Workload is "hosp" or "tax".
	Workload string
	// N is the number of tuples.
	N int
	// FDs is how many of the workload's 9 FDs to use (0 means all).
	FDs int
	// ErrorRate is the dirty-cell fraction (the paper's e%), e.g. 0.04.
	ErrorRate float64
	// Seed drives generation and noise.
	Seed int64
	// WL/WR/Tau override the benchmark distance configuration when all are
	// non-zero (used by the weight-split ablation).
	WL, WR, Tau float64
}

// RecallByKind splits recall by the §6.1 error kinds using the instance's
// injection ledger: of the errors injected as typos / RHS swaps / LHS
// swaps, how many did the repair restore to the clean value.
func (inst *Instance) RecallByKind(repaired *dataset.Relation) map[gen.ErrorKind]Quality {
	out := make(map[gen.ErrorKind]Quality)
	for _, inj := range inst.Injections {
		q := out[inj.Kind]
		q.Errors++
		if repaired.Get(inj.Cell) == inj.Clean {
			q.Correct++
		}
		out[inj.Kind] = q
	}
	for k, q := range out {
		if q.Errors > 0 {
			q.Recall = q.Correct / float64(q.Errors)
		}
		out[k] = q
	}
	return out
}

// Prepare builds the instance: generate clean data, inject noise, assemble
// the constraint set and distance configuration.
func Prepare(s Setup) (*Instance, error) {
	if s.N <= 0 {
		return nil, fmt.Errorf("eval: N must be positive")
	}
	var clean *dataset.Relation
	var fds []*fd.FD
	switch strings.ToLower(s.Workload) {
	case "hosp":
		clean = gen.HOSP{Seed: s.Seed}.Generate(s.N)
		fds = gen.HOSPFDs(clean.Schema)
	case "tax":
		clean = gen.Tax{Seed: s.Seed}.Generate(s.N)
		fds = gen.TaxFDs(clean.Schema)
	default:
		return nil, fmt.Errorf("eval: unknown workload %q (want hosp or tax)", s.Workload)
	}
	if s.FDs > 0 {
		if s.FDs > len(fds) {
			return nil, fmt.Errorf("eval: workload has %d FDs, %d requested", len(fds), s.FDs)
		}
		fds = fds[:s.FDs]
	}
	dirty, injections := gen.Inject(clean, fds, s.ErrorRate, s.Seed+1)
	wl, wr, tau := BenchWL, BenchWR, BenchTau
	if !fd.FloatEq(s.WL, 0) || !fd.FloatEq(s.WR, 0) {
		wl, wr, tau = s.WL, s.WR, s.Tau
	}
	set, err := fd.NewSet(fds, tau)
	if err != nil {
		return nil, err
	}
	cfg, err := fd.NewDistConfig(dirty, wl, wr)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Name:       fmt.Sprintf("%s-n%d-fds%d-e%g", strings.ToLower(s.Workload), s.N, len(fds), s.ErrorRate),
		Clean:      clean,
		Dirty:      dirty,
		Set:        set,
		Cfg:        cfg,
		Injections: injections,
	}, nil
}
