//go:build !race

package codeletfft_test

const raceEnabled = false
