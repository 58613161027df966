package strsim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// benchAlphabet is a 16-letter alphabet, mirroring the mixed density of
// relational attribute values.
const benchAlphabet = "abcdefghijklmnop"

// benchSink keeps the measured calls from being dead-code eliminated.
var benchSink int

func benchWord(rng *rand.Rand, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(benchAlphabet[rng.Intn(len(benchAlphabet))])
	}
	return sb.String()
}

// benchMutate applies up to k random character edits to s.
func benchMutate(rng *rand.Rand, s string, k int) string {
	b := []byte(s)
	for i := 0; i < k; i++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(b) > 0:
			p := rng.Intn(len(b))
			b = append(b[:p], b[p+1:]...)
		case op == 1:
			p := rng.Intn(len(b) + 1)
			b = append(b[:p], append([]byte{benchAlphabet[rng.Intn(len(benchAlphabet))]}, b[p:]...)...)
		default:
			if len(b) > 0 {
				b[rng.Intn(len(b))] = benchAlphabet[rng.Intn(len(benchAlphabet))]
			}
		}
	}
	return string(b)
}

// BenchmarkDistance times the edit-distance paths at pattern lengths
// straddling the 64-character word boundary: the DP oracle, the
// bit-parallel kernel, and a Matcher streaming the candidates (pattern
// tables built once per stream). One op is one stream of 64 near
// candidates — a few edits from the pattern, the case the length
// prefilters cannot reject — and ns/cmp is the per-comparison cost.
// `make bench-check` gates the family; a local run is
//
//	go test -run '^$' -bench Distance -benchmem ./internal/strsim/
func BenchmarkDistance(b *testing.B) {
	const streamLen = 64
	rng := rand.New(rand.NewSource(7))
	for _, length := range []int{8, 16, 64, 128} {
		pat := benchWord(rng, length)
		cands := make([]string, streamLen)
		for i := range cands {
			cands[i] = benchMutate(rng, pat, 1+rng.Intn(3))
		}
		for _, path := range []struct {
			name   string
			stream func()
		}{
			{"dp", func() {
				for _, c := range cands {
					benchSink += LevenshteinDP(pat, c)
				}
			}},
			{"kernel", func() {
				for _, c := range cands {
					benchSink += Levenshtein(pat, c)
				}
			}},
			{"matcher", func() {
				mt := AcquireMatcher(pat)
				for _, c := range cands {
					benchSink += mt.Distance(c)
				}
				mt.Release()
			}},
		} {
			b.Run(fmt.Sprintf("%s/len%d", path.name, length), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					path.stream()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*streamLen), "ns/cmp")
			})
		}
	}
}
