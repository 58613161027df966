//go:build !race

package targettree_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
