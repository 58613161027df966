package server

import (
	"strings"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/ledger"
	"ftrepair/internal/obs"
	"ftrepair/internal/profile"
	"ftrepair/internal/repair"
)

// JobSpec is the JSON body of POST /v1/jobs: the dirty data (inline CSV or
// header+rows), the FD set, and the repair configuration. Zero values take
// the documented defaults, matching the ftrepair CLI.
type JobSpec struct {
	// CSV is the input relation as CSV text with a header row. Mutually
	// exclusive with Header/Rows.
	CSV string `json:"csv,omitempty"`
	// Header and Rows carry the relation inline instead of CSV.
	Header []string   `json:"header,omitempty"`
	Rows   [][]string `json:"rows,omitempty"`
	// Types is a comma-separated attribute type spec aligned with the
	// header (string|numeric). Empty means inferred from the data.
	Types string `json:"types,omitempty"`
	// FDs are dependency specs like "City,Street -> District" (required).
	FDs []string `json:"fds"`
	// Tau is the FT-violation threshold for every FD (default 0.3);
	// AutoTau derives one per FD with the sudden-gap heuristic instead.
	Tau     float64 `json:"tau,omitempty"`
	AutoTau bool    `json:"autoTau,omitempty"`
	// WL and WR are the LHS/RHS distance weights (default 0.7/0.3; must
	// sum to 1 when set).
	WL float64 `json:"wl,omitempty"`
	WR float64 `json:"wr,omitempty"`
	// Algorithm is one of ExactS, GreedyS, ExactM, ApproM, GreedyM
	// (case-insensitive; default GreedyM).
	Algorithm string `json:"algorithm,omitempty"`
	// Tuning knobs forwarded to repair.Options.
	MaxNodes       int  `json:"maxNodes,omitempty"`
	MaxMISPerFD    int  `json:"maxMisPerFd,omitempty"`
	Parallel       int  `json:"parallel,omitempty"`
	DisablePruning bool `json:"disablePruning,omitempty"`
	// TimeoutMs cancels the job after this many milliseconds of run time
	// (0 means no deadline). A timed-out job reports state "canceled".
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// Verify, when true, runs VerifyFTConsistent and VerifyValid on the
	// repaired relation and reports the outcome in the result. Off by
	// default: verification is quadratic in the number of patterns.
	Verify bool `json:"verify,omitempty"`
}

// SessionSpec is the JSON body of POST /v1/sessions. The base relation is
// repaired with Algorithm first when it is not already FT-consistent, so the
// session always starts from a consistent state. The fields up to Algorithm
// mean what JobSpec's do and compile through the same compileRun.
type SessionSpec struct {
	CSV       string     `json:"csv,omitempty"`
	Header    []string   `json:"header,omitempty"`
	Rows      [][]string `json:"rows,omitempty"`
	Types     string     `json:"types,omitempty"`
	FDs       []string   `json:"fds"`
	Tau       float64    `json:"tau,omitempty"`
	AutoTau   bool       `json:"autoTau,omitempty"`
	WL        float64    `json:"wl,omitempty"`
	WR        float64    `json:"wr,omitempty"`
	Algorithm string     `json:"algorithm,omitempty"`
	// Streaming-ingest knobs: appends enqueue into a batcher that flushes on
	// MaxBatch rows or MaxDelayMs milliseconds (whichever first) and pushes
	// back once MaxPending rows are queued. Zero values take the batcher
	// defaults (MaxBatch 256, MaxPending 4×MaxBatch) with a 5ms MaxDelay.
	MaxBatch   int `json:"maxBatch,omitempty"`
	MaxDelayMs int `json:"maxDelayMs,omitempty"`
	MaxPending int `json:"maxPending,omitempty"`
}

// problem is a compiled run: the parsed relation, constraint set, distance
// model and checked algorithm, ready to run.
type problem struct {
	rel  *dataset.Relation
	set  *fd.Set
	cfg  *fd.DistConfig
	algo repair.Algorithm
	opts repair.Options
}

// compileRun compiles the run fields that jobs and sessions share: it
// loads the relation, compiles the constraints with the run defaults for
// zero values, and checks the algorithm against them.
func compileRun(csv string, header []string, rows [][]string, types string,
	fds []string, tau float64, autoTau bool, wl, wr float64, algorithm string) (*problem, error) {
	src := profile.Source{Header: header, Rows: rows, Types: types}
	if csv != "" {
		src.CSV = strings.NewReader(csv)
	}
	rel, err := profile.Load(src)
	if err != nil {
		return nil, err
	}
	if fd.FloatEq(tau, 0) {
		tau = fd.RunTau
	}
	if fd.FloatEq(wl, 0) && fd.FloatEq(wr, 0) {
		wl, wr = fd.RunWL, fd.RunWR
	}
	set, cfg, err := fd.Compile(rel, fds, tau, autoTau, wl, wr)
	if err != nil {
		return nil, err
	}
	algo := repair.ParseAlgorithm(algorithm)
	if err := algo.Check(set); err != nil {
		return nil, err
	}
	return &problem{rel: rel, set: set, cfg: cfg, algo: algo}, nil
}

// compile validates a job spec into a runnable problem.
func (spec *JobSpec) compile() (*problem, error) {
	p, err := compileRun(spec.CSV, spec.Header, spec.Rows, spec.Types,
		spec.FDs, spec.Tau, spec.AutoTau, spec.WL, spec.WR, spec.Algorithm)
	if err != nil {
		return nil, err
	}
	p.opts = repair.Options{
		MaxNodes:       spec.MaxNodes,
		MaxMISPerFD:    spec.MaxMISPerFD,
		Parallel:       spec.Parallel,
		DisablePruning: spec.DisablePruning,
	}
	return p, nil
}

// run executes the compiled problem with the given cancellation channel, an
// optional trace collecting phase spans, and an optional ledger sink
// receiving the applied cell repairs (nil disables either).
func (p *problem) run(cancel <-chan struct{}, tr *obs.Trace, sink ledger.Sink) (*repair.Result, error) {
	opts := p.opts
	opts.Cancel = cancel
	opts.Trace = tr
	opts.Ledger = sink
	return repair.Run(p.rel, p.set, p.cfg, p.algo, opts)
}
