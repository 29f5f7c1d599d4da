//go:build !race

package server

// raceEnabled reports whether the race detector is active. Under -race,
// sync.Pool deliberately drops items at random to expose reuse races, so
// allocation-count assertions are skipped there.
const raceEnabled = false
