//go:build !race

package repair

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
