package main

import (
	"math"
	"testing"
)

// TestParseBytes: -budget takes a count with an optional unit, and a
// count that is negative or whose byte total overflows int64 is refused
// rather than wrapped into a budget nobody asked for.
func TestParseBytes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64 // ignored when fail
		fail bool
	}{
		{in: "512MiB", want: 512 << 20},
		{in: "1GiB", want: 1 << 30},
		{in: "64MB", want: 64e6},
		{in: " 4 K ", want: 4 << 10},
		{in: "1024", want: 1024},
		{in: "0", want: 0},
		{in: "9223372036854775807", want: math.MaxInt64},
		{in: "8589934591GiB", want: 8589934591 << 30},
		{in: "8589934592GiB", fail: true},  // 2^63 bytes
		{in: "17179869185GiB", fail: true}, // 2^64 + 2^30: wrapped to 1 GiB
		{in: "9223372036854775808", fail: true},
		{in: "-64MiB", fail: true},
		{in: "-1", fail: true},
		{in: "lots", fail: true},
		{in: "MiB", fail: true},
	} {
		got, err := parseBytes(tc.in)
		switch {
		case tc.fail && err == nil:
			t.Errorf("parseBytes(%q) = %d, want an error", tc.in, got)
		case !tc.fail && err != nil:
			t.Errorf("parseBytes(%q): %v, want %d", tc.in, err, tc.want)
		case !tc.fail && got != tc.want:
			t.Errorf("parseBytes(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
