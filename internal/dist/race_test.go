//go:build race

package dist

// raceEnabled skips allocation-count guards under the race detector:
// its instrumentation allocates, and in race mode sync.Pool drops a
// random quarter of its Puts.
const raceEnabled = true
