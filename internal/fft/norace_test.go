//go:build !race

package fft_test

const raceEnabled = false
