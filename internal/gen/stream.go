package gen

import (
	"fmt"
	"strings"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
)

// StreamConfig describes a timed ingest workload: a base relation a session
// starts from, plus a sequence of arrival batches drawn from the same
// generator and dirtied at the same rate — the shape the incremental engine,
// repaird sessions and the incr package's BenchmarkIngest replay.
type StreamConfig struct {
	// Workload is "hosp" or "tax".
	Workload string
	// Base is the number of rows in the base relation.
	Base int
	// Batches and BatchSize shape the streamed tail: Batches arrivals of
	// BatchSize rows each.
	Batches   int
	BatchSize int
	// FDs limits how many of the workload's FDs drive the noise model
	// (0 means all).
	FDs int
	// Rate is the §6.1 dirty-cell fraction over base and stream alike.
	Rate float64
	// Seed drives generation and noise.
	Seed int64
	// IntervalMs spaces arrivals: batch i arrives at i*IntervalMs.
	IntervalMs int
}

// StreamBatch is one timed arrival of rows.
type StreamBatch struct {
	// AtMs is the batch's arrival offset from stream start, in milliseconds.
	AtMs int `json:"atMs"`
	// Rows are the arriving tuples, dirty.
	Rows [][]string `json:"rows"`
}

// Stream generates Base+Batches*BatchSize clean rows, dirties them at the
// configured rate, and splits the tail into timed arrival batches. The base
// and the stream come from one generation pass, so streamed rows share the
// base's active domain (their errors can repair toward standing patterns).
// Returns the dirty base, the batches, and the workload's FD list (already
// truncated to cfg.FDs).
func Stream(cfg StreamConfig) (*dataset.Relation, []StreamBatch, []*fd.FD, error) {
	if cfg.Base <= 0 || cfg.Batches < 0 || cfg.BatchSize <= 0 {
		return nil, nil, nil, fmt.Errorf("gen: stream needs positive base and batch size")
	}
	total := cfg.Base + cfg.Batches*cfg.BatchSize
	var clean *dataset.Relation
	var fds []*fd.FD
	switch strings.ToLower(cfg.Workload) {
	case "hosp":
		clean = HOSP{Seed: cfg.Seed}.Generate(total)
		fds = HOSPFDs(clean.Schema)
	case "tax":
		clean = Tax{Seed: cfg.Seed}.Generate(total)
		fds = TaxFDs(clean.Schema)
	default:
		return nil, nil, nil, fmt.Errorf("gen: unknown stream workload %q (hosp, tax)", cfg.Workload)
	}
	if cfg.FDs > 0 {
		if cfg.FDs > len(fds) {
			return nil, nil, nil, fmt.Errorf("gen: workload has %d FDs, %d requested", len(fds), cfg.FDs)
		}
		fds = fds[:cfg.FDs]
	}
	dirty, _ := Inject(clean, fds, cfg.Rate, cfg.Seed+1)
	base := &dataset.Relation{Schema: dirty.Schema, Tuples: dirty.Tuples[:cfg.Base]}
	batches := make([]StreamBatch, 0, cfg.Batches)
	for b := 0; b < cfg.Batches; b++ {
		off := cfg.Base + b*cfg.BatchSize
		rows := make([][]string, cfg.BatchSize)
		for i := range rows {
			rows[i] = dirty.Tuples[off+i]
		}
		batches = append(batches, StreamBatch{AtMs: b * cfg.IntervalMs, Rows: rows})
	}
	return base, batches, fds, nil
}
