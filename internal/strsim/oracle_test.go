package strsim

// The retained dynamic programs. They live in a test file because nothing
// in production calls them: they are the reference the Myers kernels
// (myers.go, matcher.go) are held to by the fuzz and unit tests, and the
// baseline the distance benchmarks time the kernels against.

// LevenshteinDP is the classic dynamic program: the equivalence oracle the
// bit-parallel kernels are fuzzed against (fuzz_test.go) and the baseline
// BenchmarkDistance compares them with.
func LevenshteinDP(a, b string) int {
	if a == b {
		return 0
	}
	if isASCII(a) && isASCII(b) {
		return levenshteinBytes(a, b)
	}
	ra, rb := runes(a), runes(b)
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	// Keep the shorter string in the inner dimension.
	if la < lb {
		ra, rb = rb, ra
		la, lb = lb, la
	}
	prev := make([]int, lb+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur := prev[0]
		prev[0] = i
		for j := 1; j <= lb; j++ {
			sub := cur
			if ra[i-1] != rb[j-1] {
				sub++
			}
			cur = prev[j]
			prev[j] = min3(prev[j]+1, prev[j-1]+1, sub)
		}
	}
	return prev[lb]
}

// levenshteinBytes is the byte-wise DP for ASCII strings: no rune slices.
func levenshteinBytes(a, b string) int {
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	if la < lb {
		a, b = b, a
		la, lb = lb, la
	}
	var stack [64]int
	var prev []int
	if lb+1 <= len(stack) {
		prev = stack[:lb+1]
	} else {
		prev = make([]int, lb+1)
	}
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur := prev[0]
		prev[0] = i
		ca := a[i-1]
		for j := 1; j <= lb; j++ {
			sub := cur
			if ca != b[j-1] {
				sub++
			}
			cur = prev[j]
			prev[j] = min3(prev[j]+1, prev[j-1]+1, sub)
		}
	}
	return prev[lb]
}

// LevenshteinBoundedDP is the banded dynamic program behind the original
// LevenshteinBounded: the kernels' equivalence oracle, ok-flags included.
// Same contract: (d, true) iff d <= maxDist.
func LevenshteinBoundedDP(a, b string, maxDist int) (int, bool) {
	if maxDist < 0 {
		return 0, false
	}
	if a == b {
		return 0, true
	}
	if isASCII(a) && isASCII(b) {
		return levenshteinBoundedBytes(a, b, maxDist)
	}
	ra, rb := runes(a), runes(b)
	la, lb := len(ra), len(rb)
	if abs(la-lb) > maxDist {
		return 0, false
	}
	if la == 0 {
		return lb, lb <= maxDist
	}
	if lb == 0 {
		return la, la <= maxDist
	}
	if la < lb {
		ra, rb = rb, ra
		la, lb = lb, la
	}
	const inf = 1 << 30
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := range prev {
		if j <= maxDist {
			prev[j] = j
		} else {
			prev[j] = inf
		}
	}
	for i := 1; i <= la; i++ {
		lo := i - maxDist
		if lo < 1 {
			lo = 1
		}
		hi := i + maxDist
		if hi > lb {
			hi = lb
		}
		if lo > hi {
			return 0, false
		}
		cur[lo-1] = inf
		if lo == 1 {
			if i <= maxDist {
				cur[0] = i
			} else {
				cur[0] = inf
			}
		}
		rowMin := inf
		for j := lo; j <= hi; j++ {
			sub := prev[j-1]
			if ra[i-1] != rb[j-1] {
				sub++
			}
			del := inf
			if prev[j] < inf {
				del = prev[j] + 1
			}
			ins := inf
			if cur[j-1] < inf {
				ins = cur[j-1] + 1
			}
			cur[j] = min3(del, ins, sub)
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		if hi < lb {
			cur[hi+1] = inf
		}
		if rowMin > maxDist {
			return 0, false
		}
		prev, cur = cur, prev
	}
	d := prev[lb]
	if d > maxDist {
		return 0, false
	}
	return d, true
}

// levenshteinBoundedBytes is the banded DP over bytes for ASCII inputs.
func levenshteinBoundedBytes(a, b string, maxDist int) (int, bool) {
	la, lb := len(a), len(b)
	if abs(la-lb) > maxDist {
		return 0, false
	}
	if la == 0 {
		return lb, lb <= maxDist
	}
	if lb == 0 {
		return la, la <= maxDist
	}
	if la < lb {
		a, b = b, a
		la, lb = lb, la
	}
	const inf = 1 << 30
	var stack [128]int
	var prev, cur []int
	if 2*(lb+1) <= len(stack) {
		prev, cur = stack[:lb+1], stack[lb+1:2*(lb+1)]
	} else {
		prev = make([]int, lb+1)
		cur = make([]int, lb+1)
	}
	for j := range prev {
		if j <= maxDist {
			prev[j] = j
		} else {
			prev[j] = inf
		}
	}
	for i := 1; i <= la; i++ {
		lo := i - maxDist
		if lo < 1 {
			lo = 1
		}
		hi := i + maxDist
		if hi > lb {
			hi = lb
		}
		if lo > hi {
			return 0, false
		}
		cur[lo-1] = inf
		if lo == 1 {
			if i <= maxDist {
				cur[0] = i
			} else {
				cur[0] = inf
			}
		}
		rowMin := inf
		ca := a[i-1]
		for j := lo; j <= hi; j++ {
			sub := prev[j-1]
			if ca != b[j-1] {
				sub++
			}
			del := inf
			if prev[j] < inf {
				del = prev[j] + 1
			}
			ins := inf
			if cur[j-1] < inf {
				ins = cur[j-1] + 1
			}
			cur[j] = min3(del, ins, sub)
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		if hi < lb {
			cur[hi+1] = inf
		}
		if rowMin > maxDist {
			return 0, false
		}
		prev, cur = cur, prev
	}
	d := prev[lb]
	if d > maxDist {
		return 0, false
	}
	return d, true
}
