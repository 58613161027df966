package strsim

// Bit-parallel edit-distance kernels (Myers 1999, blocked per Hyyrö 2003).
//
// The pattern is encoded as per-character equivalence bitmasks: bit i of
// peq[c] is set when pattern[i] == c. One dynamic-programming column of the
// classic Levenshtein matrix is then represented by two machine words — the
// positive (Pv) and negative (Mv) vertical delta vectors — and advancing the
// whole column over one text character costs a constant number of word
// operations instead of O(m) cell updates. The running score tracks the
// bottom cell D[m][j]; `Ph = (Ph << 1) | 1` injects the D[0][j] = j boundary
// of the global edit-distance recurrence (Myers' original searcher uses
// D[0][j] = 0 instead).
//
// Patterns longer than 64 runes use the blocked variant: the column is split
// into 64-bit blocks and a horizontal carry hin/hout in {-1, 0, +1} chains
// them, exactly Hyyrö's advanceBlock step.
//
// Every kernel takes a maxDist bound and applies the same early exit: after
// the j-th text character the final score can still drop by at most one per
// remaining character, so score - remaining > maxDist proves rejection. The
// unbounded entry points pass an unreachable bound. The dynamic programs
// in oracle_test.go (LevenshteinDP, LevenshteinBoundedDP) are the equivalence
// oracles; the fuzz targets in fuzz_test.go hold the kernels to exact parity
// with them, distances and ok-flags both.

// myersASCII computes the bounded distance for an ASCII pattern p with
// 1 <= len(p) <= 64 against ASCII text t.
func myersASCII(p, t string, maxDist int) (int, bool) {
	var peq [128]uint64
	for i := 0; i < len(p); i++ {
		peq[p[i]&0x7f] |= 1 << uint(i)
	}
	return myersRunASCII(&peq, len(p), t, maxDist)
}

// myersRunASCII advances a prebuilt single-word ASCII equivalence table over
// t. Shared by the one-shot kernel and the Matcher, whose whole point is
// building peq once per pattern.
func myersRunASCII(peq *[128]uint64, m int, t string, maxDist int) (int, bool) {
	pv := ^uint64(0)
	var mv uint64
	score := m
	hbit := uint64(1) << uint(m-1)
	n := len(t)
	for j := 0; j < n; j++ {
		eq := peq[t[j]&0x7f]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&hbit != 0 {
			score++
		} else if mh&hbit != 0 {
			score--
		}
		ph = ph<<1 | 1
		pv = mh<<1 | ^(xv | ph)
		mv = ph & xv
		if score-(n-1-j) > maxDist {
			return 0, false
		}
	}
	if score > maxDist {
		return 0, false
	}
	return score, true
}

// myersRunes is the single-word kernel over runes: pattern pr with
// 1 <= len(pr) <= 64, used when either side holds non-ASCII characters.
func myersRunes(pr, tr []rune, maxDist int) (int, bool) {
	peq := make(map[rune]uint64, len(pr))
	for i, r := range pr {
		peq[r] |= 1 << uint(i)
	}
	pv := ^uint64(0)
	var mv uint64
	score := len(pr)
	hbit := uint64(1) << uint(len(pr)-1)
	n := len(tr)
	for j := 0; j < n; j++ {
		eq := peq[tr[j]]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&hbit != 0 {
			score++
		} else if mh&hbit != 0 {
			score--
		}
		ph = ph<<1 | 1
		pv = mh<<1 | ^(xv | ph)
		mv = ph & xv
		if score-(n-1-j) > maxDist {
			return 0, false
		}
	}
	if score > maxDist {
		return 0, false
	}
	return score, true
}

// myersBlockedASCII is the multi-word kernel for ASCII patterns longer than
// 64 bytes: the column is w = ceil(m/64) blocks chained by the horizontal
// carry, with a dense 128×w equivalence slab.
func myersBlockedASCII(p, t string, maxDist int) (int, bool) {
	m := len(p)
	w := (m + 63) >> 6
	peq := make([]uint64, 128*w)
	for i := 0; i < m; i++ {
		peq[int(p[i]&0x7f)*w+i>>6] |= 1 << uint(i&63)
	}
	pv := make([]uint64, w)
	mv := make([]uint64, w)
	for b := range pv {
		pv[b] = ^uint64(0)
	}
	score := m
	hbit := uint64(1) << uint((m-1)&63)
	n := len(t)
	for j := 0; j < n; j++ {
		row := peq[int(t[j]&0x7f)*w : int(t[j]&0x7f)*w+w]
		score += advanceBlocks(row, pv, mv, hbit)
		if score-(n-1-j) > maxDist {
			return 0, false
		}
	}
	if score > maxDist {
		return 0, false
	}
	return score, true
}

// myersBlockedRunes is the multi-word kernel over runes, with a sparse
// per-rune equivalence map.
func myersBlockedRunes(pr, tr []rune, maxDist int) (int, bool) {
	m := len(pr)
	w := (m + 63) >> 6
	peq := make(map[rune][]uint64, m)
	for i, r := range pr {
		row := peq[r]
		if row == nil {
			row = make([]uint64, w)
			peq[r] = row
		}
		row[i>>6] |= 1 << uint(i&63)
	}
	pv := make([]uint64, w)
	mv := make([]uint64, w)
	for b := range pv {
		pv[b] = ^uint64(0)
	}
	score := m
	hbit := uint64(1) << uint((m-1)&63)
	n := len(tr)
	for j := 0; j < n; j++ {
		score += advanceBlocks(peq[tr[j]], pv, mv, hbit)
		if score-(n-1-j) > maxDist {
			return 0, false
		}
	}
	if score > maxDist {
		return 0, false
	}
	return score, true
}

// advanceBlocks runs one text character through every block of a multi-word
// column, threading the horizontal carry bottom-up, and returns the score
// delta observed at the pattern's last row. eq may be nil (a character
// absent from the pattern: all-zero equivalence). The high bits of the last
// block beyond hbit carry no information: carries in the Xh addition only
// propagate upward, so the garbage above the pattern's top bit never reaches
// it.
func advanceBlocks(eq []uint64, pv, mv []uint64, hbit uint64) int {
	w := len(pv)
	hin := 1
	for b := 0; b < w; b++ {
		var eqb uint64
		if eq != nil {
			eqb = eq[b]
		}
		pvb, mvb := pv[b], mv[b]
		xv := eqb | mvb
		if hin < 0 {
			eqb |= 1
		}
		xh := (((eqb & pvb) + pvb) ^ pvb) | eqb
		ph := mvb | ^(xh | pvb)
		mh := pvb & xh
		hb := uint64(1) << 63
		if b == w-1 {
			hb = hbit
		}
		hout := 0
		if ph&hb != 0 {
			hout = 1
		} else if mh&hb != 0 {
			hout = -1
		}
		ph <<= 1
		mh <<= 1
		if hin > 0 {
			ph |= 1
		} else if hin < 0 {
			mh |= 1
		}
		pv[b] = mh | ^(xv | ph)
		mv[b] = ph & xv
		hin = hout
	}
	return hin
}
