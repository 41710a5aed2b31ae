// Arbitrary-N end-to-end tests: with the facade planning any positive
// length, the daemon serves non-power-of-two complex transforms (and
// any even-length real transform) and answers unservable shapes — real
// odd lengths, below MinN — with 400, not 500. This is the
// HTTP-visible edge of the mixed-radix/Bluestein planner.
package serve

import (
	"math"
	"net/http"
	"testing"

	"codeletfft/internal/fft"
)

// TestJSONArbitraryN serves a 12-point (mixed-radix) and a 13-point
// (Bluestein) complex forward transform and checks the spectra against
// the reference DFT.
func TestJSONArbitraryN(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, n := range []int{12, 13, 100} {
		re := make([]float64, n)
		im := make([]float64, n)
		x := make([]complex128, n)
		for i := range re {
			re[i] = math.Sin(2*math.Pi*3*float64(i)/float64(n)) + 0.25*float64(i%4)
			im[i] = math.Cos(2 * math.Pi * float64(i) / float64(n))
			x[i] = complex(re[i], im[i])
		}
		resp, out := postJSON(t, ts.URL, jsonRequest{Kind: "forward", Re: re, Im: im})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("forward n=%d: status = %d, want 200", n, resp.StatusCode)
		}
		if out.N != n || len(out.Re) != n {
			t.Fatalf("forward n=%d: response shape n=%d len=%d", n, out.N, len(out.Re))
		}
		want := fft.DFT(x)
		for k := range want {
			if d := math.Hypot(out.Re[k]-real(want[k]), out.Im[k]-imag(want[k])); d > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d = %v+%vi, want %v", n, k, out.Re[k], out.Im[k], want[k])
			}
		}

		// And back: the inverse of the served spectrum recovers x.
		resp, back := postJSON(t, ts.URL, jsonRequest{Kind: "inverse", Re: out.Re, Im: out.Im})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("inverse n=%d: status = %d, want 200", n, resp.StatusCode)
		}
		for i := range x {
			if d := math.Hypot(back.Re[i]-re[i], back.Im[i]-im[i]); d > 1e-9 {
				t.Fatalf("n=%d: inverse sample %d diverged by %g", n, i, d)
			}
		}
	}
}

// TestArbitraryNUnservableShapesReturn400: shapes the planner cannot or
// will not serve are client errors, never internal ones.
func TestArbitraryNUnservableShapesReturn400(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cases := map[string]jsonRequest{
		"real odd length": {Kind: "real", Re: make([]float64, 13)},
		"real-inv tiny":   {Kind: "real-inverse", Re: make([]float64, 2), Im: make([]float64, 2)},
		"below MinN":      {Kind: "forward", Re: make([]float64, 3), Im: make([]float64, 3)},
		"empty":           {Kind: "forward"},
	}
	for name, req := range cases {
		resp, _ := postJSON(t, ts.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	if got := s.m.internal.Value(); got != 0 {
		t.Fatalf("unservable shapes counted %d internal errors, want 0", got)
	}
}
