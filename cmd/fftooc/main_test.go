package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckArgs: a check that would verify the wrong data, or ignore
// the files it was given, is refused with the flags named.
func TestCheckArgs(t *testing.T) {
	for _, tc := range []struct {
		check, in, out string
		inverse        bool
		want           []string // substrings of the error; nil = accepted
	}{
		{check: "tone"},
		{check: "incore"},
		{check: "roundtrip", in: "x.c128", out: "y.c128"},
		{check: "none", in: "x.c128", inverse: true},
		{check: "tone", in: "x.c128", want: []string{"-check tone", "-in"}},
		{check: "tone", inverse: true, want: []string{"-check tone", "-inverse"}},
		{check: "incore", in: "x.c128", want: []string{"-check incore", "-in", "-out"}},
		{check: "incore", out: "y.c128", want: []string{"-check incore", "-in", "-out"}},
		{check: "bogus", want: []string{`"bogus"`}},
	} {
		err := checkArgs(tc.check, tc.in, tc.out, tc.inverse)
		if tc.want == nil {
			if err != nil {
				t.Errorf("%+v: %v, want accepted", tc, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%+v: accepted, want an error naming %q", tc, tc.want)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%+v: error %q does not name %q", tc, err, w)
			}
		}
	}
}

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
