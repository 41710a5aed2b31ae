//go:build race

package ooc

// raceEnabled skips the budget-derived rows at 2^20 points and up
// under the race detector, where each would take minutes.
const raceEnabled = true
