package fd_test

import (
	"math/rand"
	"testing"

	"ftrepair/internal/dataset"
	"ftrepair/internal/fd"
)

// BenchmarkDistCacheHit times a warmed DistCache answering interned pairs:
// from the distance plane (interned codes, one atomic load) versus from the
// sharded map (hash + RWMutex), the path a cache without dictionaries
// takes. The column holds 128 distinct 12-character values; one op
// re-queries 4096 warmed pairs, and ns/lookup is the per-pair cost.
// `make bench-check` gates the family; a local run is
//
//	go test -run '^$' -bench DistCacheHit -benchmem ./internal/fd/
func BenchmarkDistCacheHit(b *testing.B) {
	const domain, alphabet = 128, "abcdefghijklmnop"
	rng := rand.New(rand.NewSource(7))
	vals := make([]string, domain)
	rows := make([][]string, domain)
	for i := range vals {
		// 8 random characters plus a 4-character base-16 index tag:
		// distinct by construction.
		word := make([]byte, 0, 12)
		for j := 0; j < 8; j++ {
			word = append(word, alphabet[rng.Intn(len(alphabet))])
		}
		word = append(word, alphabet[(i>>12)&15], alphabet[(i>>8)&15], alphabet[(i>>4)&15], alphabet[i&15])
		vals[i] = string(word)
		rows[i] = []string{vals[i]}
	}
	rel, err := dataset.FromRows(dataset.Strings("A"), rows)
	if err != nil {
		b.Fatal(err)
	}
	pairs := make([][2]string, 4096)
	for i := range pairs {
		x, y := rng.Intn(domain), rng.Intn(domain-1)
		if y >= x {
			y++
		}
		pairs[i] = [2]string{vals[x], vals[y]}
	}
	var sink float64
	lookups := func(cfg *fd.DistConfig) {
		for _, p := range pairs {
			sink += cfg.AttrDist(0, p[0], p[1])
		}
	}
	planed := fd.DefaultDistConfig(rel)
	mapped := fd.DefaultDistConfig(rel)
	mapped.Dicts = nil
	mapped.Cache = fd.NewDistCache()
	for _, v := range []struct {
		name string
		cfg  *fd.DistConfig
	}{{"map", mapped}, {"plane", planed}} {
		lookups(v.cfg) // warm: every pair resolved exactly once
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lookups(v.cfg)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/lookup")
		})
	}
	if sink < 0 {
		b.Fatal("negative distance")
	}
}
