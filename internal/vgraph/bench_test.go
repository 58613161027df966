package vgraph_test

import (
	"fmt"
	"testing"

	"ftrepair/internal/eval"
	"ftrepair/internal/fd"
	"ftrepair/internal/repair"
	"ftrepair/internal/vgraph"
)

// BenchmarkGraphBuildWorkers is the construction-phase family on HOSP at
// N=5000: all-pairs and q-gram-indexed single-FD builds with the distance
// cache off and on, sequential and at GOMAXPROCS workers, plus end-to-end
// Detect over the full FD set. A cached entry gets a fresh DistCache with
// its distance planes attached — the configuration every real run uses —
// that persists across its iterations, as the cache built during graph
// construction keeps serving later phases. `make bench-check` gates the
// family; a local run is
//
//	go test -run '^$' -bench GraphBuildWorkers -benchmem ./internal/vgraph/
func BenchmarkGraphBuildWorkers(b *testing.B) {
	single := prepare(b, eval.Setup{Workload: "hosp", N: 5000, FDs: 1, ErrorRate: 0.04, Seed: 7})
	f, tau := single.Set.FDs[0], single.Set.Tau[0]
	for _, mode := range []string{"allpairs", "indexed"} {
		for _, v := range []struct {
			name    string
			workers int
			cache   bool
		}{
			{"w1/nocache", 1, false},
			{"w1/cache", 1, true},
			{"wmax/cache", 0, true}, // 0 = GOMAXPROCS
		} {
			b.Run(mode+"/"+v.name, func(b *testing.B) {
				cfg := withCache(single.Cfg, v.cache)
				opts := vgraph.Options{DisableIndex: mode == "allpairs", Workers: v.workers}
				b.ReportAllocs()
				var g *vgraph.Graph
				for i := 0; i < b.N; i++ {
					g = vgraph.Build(single.Dirty, f, cfg, tau, opts)
				}
				b.ReportMetric(float64(g.NumEdges()*b.N)/b.Elapsed().Seconds(), "edges/s")
				reportHitRate(b, cfg)
			})
		}
	}

	full := prepare(b, eval.Setup{Workload: "hosp", N: 5000, ErrorRate: 0.04, Seed: 7})
	b.Run(fmt.Sprintf("detect/%dfds/cache", len(full.Set.FDs)), func(b *testing.B) {
		cfg := withCache(full.Cfg, true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			repair.Detect(full.Dirty, full.Set, cfg, repair.Options{})
		}
		reportHitRate(b, cfg)
	})
}

func prepare(b *testing.B, s eval.Setup) *eval.Instance {
	b.Helper()
	inst, err := eval.Prepare(s)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// withCache returns a shallow copy of cfg with a fresh, plane-attached
// distance cache, or with no cache at all.
func withCache(cfg *fd.DistConfig, cache bool) *fd.DistConfig {
	c := *cfg
	c.Cache = nil
	if cache {
		c.Cache = fd.NewDistCache()
		c.AttachPlanes()
	}
	return &c
}

func reportHitRate(b *testing.B, cfg *fd.DistConfig) {
	if cfg.Cache == nil {
		return
	}
	if hits, misses := cfg.Cache.Counters(); hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "hit-rate")
	}
}
