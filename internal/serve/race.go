//go:build race

package serve

// raceEnabled makes ReleaseComplex poison what it takes back, and skips
// the allocation-count guards in the tests: the detector's
// instrumentation allocates, and sync.Pool deliberately drops a
// fraction of Puts when built with -race, so a pooled zero-alloc
// guarantee is unmeasurable there.
const raceEnabled = true
