//go:build !race

package ooc

const raceEnabled = false
