//go:build race

package fft_test

// raceEnabled skips allocation-count guards under the race detector:
// in race mode sync.Pool drops a random quarter of its Puts, so a
// pooled path allocates now and then by design. It also skips the
// serial accuracy oracle, which has nothing to race on.
const raceEnabled = true
