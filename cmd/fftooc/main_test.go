package main

import (
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
