package incr_test

import (
	"fmt"
	"runtime"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
	"ftrepair/internal/gen"
	"ftrepair/internal/incr"
	"ftrepair/internal/repair"
)

// ingestFixture is one replayed ingest workload: a HOSP base relation plus
// an arrival stream of fixed-size batches, checked against the first three
// HOSP FDs. The full set contains low-cardinality FDs whose shared
// patterns chain every row into one shard (locality degrades to
// from-scratch by design); the first three have real locality, the regime
// the sharded engine exists for.
type ingestFixture struct {
	base   *dataset.Relation
	stream []gen.StreamBatch
	full   *dataset.Relation // base plus every streamed row
	set    *fd.Set
	cfg    *fd.DistConfig
}

const (
	ingestBatches   = 8
	ingestBatchRows = 100
)

func newIngestFixture(b *testing.B, n int) *ingestFixture {
	b.Helper()
	base, stream, fds, err := gen.Stream(gen.StreamConfig{
		Workload: "hosp", Base: n - ingestBatches*ingestBatchRows,
		Batches: ingestBatches, BatchSize: ingestBatchRows,
		FDs: 3, Rate: 0.05, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	set, err := fd.NewSet(fds, fd.RunTau)
	if err != nil {
		b.Fatal(err)
	}
	// Every mode shares one distance model derived from the full stream,
	// so their repairs see identical numeric spans.
	full := base.Clone()
	for _, batch := range stream {
		for _, row := range batch.Rows {
			if err := full.Append(row); err != nil {
				b.Fatal(err)
			}
		}
	}
	cfg, err := fd.NewDistConfig(full, fd.RunWL, fd.RunWR)
	if err != nil {
		b.Fatal(err)
	}
	return &ingestFixture{base: base, stream: stream, full: full, set: set, cfg: cfg}
}

// freshCfg gives an iteration its own cold distance cache, so every
// iteration of a mode does the same distance work.
func (f *ingestFixture) freshCfg() *fd.DistConfig {
	c := *f.cfg
	c.Cache = fd.NewDistCache()
	c.AttachPlanes()
	return &c
}

// BenchmarkIngest replays a timed ingest stream (gen.Stream) at three
// relation sizes, with the arrival batch fixed at 100 rows so comparing
// sizes isolates the standing relation's contribution:
//
//   - incremental: one op streams the 8 arrival batches into a warm
//     sharded engine (engine construction over the base is untimed);
//   - spot: one op appends 5 small batches of 10 rows the relation already
//     holds into an engine that has ingested the whole stream — the direct
//     probe of the touched-component bound;
//   - fromscratch: one op re-runs GreedyM over the whole accumulated
//     relation after each of the 8 arrivals.
//
// ms/batch is the per-batch latency; shards-touched and max-shard-rows
// (incremental and spot) are the mean shards a batch dirties and the
// largest touched shard, the quantity per-batch work is bounded by.
// `make bench-check` gates the family; a local run is
//
//	go test -run '^$' -bench Ingest -benchmem ./internal/incr/
func BenchmarkIngest(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	for _, n := range []int{1250, 2500, 5000} {
		f := newIngestFixture(b, n)
		b.Run(fmt.Sprintf("incremental/n%d", n), func(b *testing.B) {
			var sh shardStats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := f.engine(b, workers)
				b.StartTimer()
				for _, batch := range f.stream {
					sh.add(b, eng, batch.Rows)
				}
			}
			sh.report(b)
		})
		b.Run(fmt.Sprintf("spot/n%d", n), func(b *testing.B) {
			const spotReps, spotRows = 5, 10
			spots := make([][][]string, spotReps)
			for r := range spots {
				spots[r] = make([][]string, spotRows)
				for j := range spots[r] {
					spots[r][j] = f.full.Tuples[(r*spotRows+j*97)%f.full.Len()]
				}
			}
			var sh shardStats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := f.engine(b, workers)
				for _, batch := range f.stream {
					if _, err := eng.Append(batch.Rows, "bench", nil); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for _, rows := range spots {
					sh.add(b, eng, rows)
				}
			}
			sh.report(b)
		})
		b.Run(fmt.Sprintf("fromscratch/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				accum, cfg := f.base.Clone(), f.freshCfg()
				b.StartTimer()
				for _, batch := range f.stream {
					for _, row := range batch.Rows {
						if err := accum.Append(row); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := repair.GreedyM(accum, f.set, cfg, repair.Options{Parallel: workers}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(msPerBatch(b, b.N*len(f.stream)), "ms/batch")
		})
	}
}

func (f *ingestFixture) engine(b *testing.B, workers int) *incr.Engine {
	eng, _, err := incr.NewEngine(f.base, f.set, f.freshCfg(), incr.Options{Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// shardStats accumulates the shard telemetry of the timed batches.
type shardStats struct {
	batches, touched, maxRows int
}

func (s *shardStats) add(b *testing.B, eng *incr.Engine, rows [][]string) {
	br, err := eng.Append(rows, "bench", nil)
	if err != nil {
		b.Fatal(err)
	}
	s.batches++
	s.touched += br.ShardsTouched
	if br.MaxShardRows > s.maxRows {
		s.maxRows = br.MaxShardRows
	}
}

func (s *shardStats) report(b *testing.B) {
	b.ReportMetric(msPerBatch(b, s.batches), "ms/batch")
	b.ReportMetric(float64(s.touched)/float64(s.batches), "shards-touched")
	b.ReportMetric(float64(s.maxRows), "max-shard-rows")
}

func msPerBatch(b *testing.B, batches int) float64 {
	return float64(b.Elapsed().Microseconds()) / 1000 / float64(batches)
}
