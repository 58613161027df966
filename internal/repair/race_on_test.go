//go:build race

package repair

// raceEnabled reports whether the race detector instruments this build.
// Race mode adds bookkeeping allocations and intentionally drops
// sync.Pool items to shake out misuse, so allocation-count assertions
// are meaningless under it.
const raceEnabled = true
