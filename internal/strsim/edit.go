// Package strsim implements the distance functions the paper's
// fault-tolerant violation semantics is built on: edit distance (plain,
// normalized, and banded with early exit), Jaccard distance over q-gram
// sets, and normalized Euclidean distance for numeric values. It also
// provides a q-gram inverted index with a length filter so that
// FT-violation detection does not need to compare all O(n^2) pairs.
//
// All normalized distances are in [0,1], with 0 meaning identical.
package strsim

import "unicode/utf8"

// Levenshtein returns the unrestricted edit distance (insert, delete,
// substitute; unit costs) between a and b, computed over runes. It runs on
// the bit-parallel Myers kernels (see myers.go): single 64-bit word when the
// shorter string fits one, multi-word blocks beyond. ASCII inputs — the bulk
// of relational data — avoid rune decoding entirely. LevenshteinDP
// (oracle_test.go) is the dynamic program the kernels are fuzzed against.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if isASCII(a) && isASCII(b) {
		if len(a) > len(b) {
			a, b = b, a
		}
		switch {
		case len(a) == 0:
			return len(b)
		case len(a) <= 64:
			d, _ := myersASCII(a, b, len(a)+len(b))
			return d
		default:
			d, _ := myersBlockedASCII(a, b, len(a)+len(b))
			return d
		}
	}
	ra, rb := runes(a), runes(b)
	if len(ra) > len(rb) {
		ra, rb = rb, ra
	}
	switch {
	case len(ra) == 0:
		return len(rb)
	case len(ra) <= 64:
		d, _ := myersRunes(ra, rb, len(ra)+len(rb))
		return d
	default:
		d, _ := myersBlockedRunes(ra, rb, len(ra)+len(rb))
		return d
	}
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// LevenshteinBounded computes the edit distance with early exit: it returns
// (d, true) when the distance d <= maxDist, and (0, false) when the distance
// exceeds maxDist. It runs on the bit-parallel kernels with a length-gap
// prefilter and the score-based cutoff (the final score can drop by at most
// one per remaining text character, so score - remaining > maxDist proves
// rejection mid-stream). LevenshteinBoundedDP (oracle_test.go) is the banded
// dynamic program the kernels are fuzzed against, ok-flags included.
func LevenshteinBounded(a, b string, maxDist int) (int, bool) {
	if maxDist < 0 {
		return 0, false
	}
	if a == b {
		return 0, true
	}
	if isASCII(a) && isASCII(b) {
		if len(a) > len(b) {
			a, b = b, a
		}
		if len(b)-len(a) > maxDist {
			return 0, false
		}
		switch {
		case len(a) == 0:
			return len(b), true // length gap checked above
		case len(a) <= 64:
			return myersASCII(a, b, maxDist)
		default:
			return myersBlockedASCII(a, b, maxDist)
		}
	}
	ra, rb := runes(a), runes(b)
	if len(ra) > len(rb) {
		ra, rb = rb, ra
	}
	if len(rb)-len(ra) > maxDist {
		return 0, false
	}
	switch {
	case len(ra) == 0:
		return len(rb), true
	case len(ra) <= 64:
		return myersRunes(ra, rb, maxDist)
	default:
		return myersBlockedRunes(ra, rb, maxDist)
	}
}

// NormalizedEdit returns the edit distance divided by the length (in runes)
// of the longer string, yielding a value in [0,1]. Two empty strings have
// distance 0.
func NormalizedEdit(a, b string) float64 {
	if a == b {
		return 0
	}
	la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	m := la
	if lb > m {
		m = lb
	}
	if m == 0 {
		return 0
	}
	return float64(Levenshtein(a, b)) / float64(m)
}

// NormalizedEditWithin reports whether the normalized edit distance between
// a and b is at most t, and if so returns it. It converts the normalized
// threshold into an absolute band so comparisons that cannot pass are
// abandoned early.
func NormalizedEditWithin(a, b string, t float64) (float64, bool) {
	if t < 0 {
		return 0, false
	}
	if a == b {
		return 0, true
	}
	la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	m := la
	if lb > m {
		m = lb
	}
	if m == 0 {
		return 0, true
	}
	maxDist := int(t * float64(m))
	d, ok := LevenshteinBounded(a, b, maxDist)
	if !ok {
		return 0, false
	}
	nd := float64(d) / float64(m)
	if nd > t {
		return 0, false
	}
	return nd, true
}

// MinDistByLength is a cheap lower bound on any normalized unit-cost edit
// distance (Levenshtein, OSA): at least |len(a)-len(b)| insertions or
// deletions are needed, so the normalized distance is at least the
// rune-length difference divided by the longer length. It is NOT a bound for
// the Jaccard q-gram distance. Callers use it to reject far-apart pairs
// before touching a cache or running the banded DP.
func MinDistByLength(a, b string) float64 {
	la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	m := la
	if lb > m {
		m = lb
	}
	if m == 0 {
		return 0
	}
	return float64(abs(la-lb)) / float64(m)
}

func runes(s string) []rune {
	// Fast path for ASCII, which dominates our workloads.
	ascii := true
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			ascii = false
			break
		}
	}
	if ascii {
		out := make([]rune, len(s))
		for i := 0; i < len(s); i++ {
			out[i] = rune(s[i])
		}
		return out
	}
	return []rune(s)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
