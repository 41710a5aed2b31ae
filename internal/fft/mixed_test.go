package fft

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The vector codelets of the mixed-radix stages (mixed_amd64.s) must be
// the Go codelets (pass2 … pass7), bit for bit: every non-NaN output
// equal in its bits, including ±0, ±Inf and subnormals, and a NaN
// wherever the Go codelet has one (its payload may differ). The parity
// holds at the default GOAMD64=v1; at v3 the Go compiler itself
// contracts x*y+z into a fused multiply-add inside the Go codelets, and
// their bits move.

// mixedOracle runs unit u of st with the Go codelets alone and the
// inverse's edges unfused: in must already be conjugated when e.conj is
// set, and the unit's outputs are conj·scaled afterwards when e.scale is.
func mixedOracle(st *MixedStage, dst, in []complex128, u int, e stageEdge) {
	p, q := u/st.S, u%st.S
	st.scalar(dst, in, p, p+1, q, q+1, stageEdge{})
	if e.scale != 0 {
		for d := 0; d < st.R; d++ {
			i := st.R*st.S*p + d*st.S + q
			conjugateScale(dst[i:i+1], dst[i:i+1], e.scale)
		}
	}
}

// checkMixedRange runs units [lo, hi) of st on src both ways — st.run
// over the given cuts, the oracle unit by unit — and reports the first
// output whose bits differ.
func checkMixedRange(t *testing.T, st *MixedStage, src []complex128, cuts []int, e stageEdge) {
	t.Helper()
	n := st.R * st.M * st.S
	in := append([]complex128(nil), src...)
	if e.conj {
		conjugate(in)
	}
	want := make([]complex128, n)
	got := make([]complex128, n)
	for i := range want {
		want[i], got[i] = sentinel, sentinel
	}
	for u := cuts[0]; u < cuts[len(cuts)-1]; u++ {
		mixedOracle(st, want, in, u, e)
	}
	x := append([]complex128(nil), src...)
	for i := 1; i < len(cuts); i++ {
		st.run(got, x, cuts[i-1], cuts[i], e)
	}
	for i := range want {
		if !sameOrNaN(real(got[i]), real(want[i])) || !sameOrNaN(imag(got[i]), imag(want[i])) {
			t.Fatalf("R=%d M=%d S=%d edge %+v cuts %v: out[%d] = %v (%#x, %#x), Go codelet %v (%#x, %#x)",
				st.R, st.M, st.S, e, cuts, i, got[i], math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
				want[i], math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
		}
	}
}

// sentinel fills outputs so that one a codelet fails to write shows.
var sentinel = complex(math.Float64frombits(0x7ff8dead00000001), math.Float64frombits(0x7ff8dead00000002))

func sameOrNaN(a, b float64) bool {
	if math.IsNaN(b) {
		return math.IsNaN(a)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// mixedValue draws a float that is mostly an ordinary number and now and
// then one of the values whose bits a careless codelet loses: ±0,
// subnormals, ±Inf, NaN. With zeros set it is mostly a signed zero, so
// that the sign of a zero can travel through a whole butterfly and show
// a dropped 0·x term or a swapped operand.
func mixedValue(rng *rand.Rand, zeros bool) float64 {
	if zeros && rng.Intn(8) != 0 {
		return math.Copysign(0, float64(rng.Intn(2))-0.5)
	}
	switch rng.Intn(64) {
	case 0, 1, 2, 3:
		return 0
	case 4, 5, 6, 7:
		return math.Copysign(0, -1)
	case 8, 9, 10:
		return math.Float64frombits(uint64(rng.Int63n(1<<52)) | uint64(rng.Intn(2))<<63)
	case 11:
		return math.Inf(1)
	case 12:
		return math.Inf(-1)
	case 13:
		return math.NaN()
	case 14, 15:
		return 0x1p-1022 * rng.NormFloat64() // around the subnormal boundary
	}
	return rng.NormFloat64()
}

func mixedStage(r, m, s int) *MixedStage {
	return &MixedStage{R: r, M: m, S: s, Tw: stageTwiddles(r*m, r, m)}
}

func TestMixedCodeletsMatchGo(t *testing.T) {
	t.Logf("vector backend: %s", soaAccel)
	rng := rand.New(rand.NewSource(1))
	edges := []stageEdge{{}, {conj: true}, {scale: 1.0 / 3000}, {conj: true, scale: 0.125}}
	for _, r := range []int{2, 3, 4, 5, 7} {
		for _, s := range []int{1, 2, 3, 4, 5, 16, 64, 1024} {
			for _, m := range []int{1, 2, 3, 5, 8, 27} {
				if r*m*s > 1<<16 {
					continue
				}
				st := mixedStage(r, m, s)
				src := make([]complex128, r*m*s)
				units := st.Units()
				for _, e := range edges {
					for _, zeros := range []bool{false, true} {
						for i := range src {
							src[i] = complex(mixedValue(rng, zeros), mixedValue(rng, zeros))
						}
						checkMixedRange(t, st, src, []int{0, units}, e)
						// A random partition: cuts in mid-row, single
						// units, whole rows, as a parallel run shards
						// the stage.
						cuts := []int{0}
						for c := 0; c < units; {
							c = min(units, c+1+rng.Intn(max(1, 2*s+3)))
							cuts = append(cuts, c)
						}
						checkMixedRange(t, st, src, cuts, e)
					}
				}
			}
		}
	}
}

// FuzzMixedCodelets checks the same property on one stage shape, unit
// range, edge and input the fuzzer picks: raw supplies the float bits,
// eight bytes a number, repeated to fill the stage.
func FuzzMixedCodelets(f *testing.F) {
	f.Add(uint8(4), uint16(1), uint16(6), uint32(0), uint32(24), uint8(1), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 2, 3, 4, 5, 6, 7, 0x80})
	f.Add(uint8(3), uint16(5), uint16(3), uint32(2), uint32(13), uint8(2), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf8, 0xff})
	f.Add(uint8(5), uint16(16), uint16(2), uint32(7), uint32(30), uint8(0), []byte{0x18, 0x2d, 0x44, 0x54, 0xfb, 0x21, 0x09, 0x40})
	f.Add(uint8(2), uint16(3), uint16(4), uint32(1), uint32(11), uint8(3), []byte{0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, radix uint8, s16, m16 uint16, lo32, hi32 uint32, edge uint8, raw []byte) {
		if len(raw) < 8 {
			return
		}
		r := []int{2, 3, 4, 5, 7}[int(radix)%5]
		s, m := 1+int(s16)%96, 1+int(m16)%48
		st := mixedStage(r, m, s)
		units := st.Units()
		lo, hi := int(lo32)%(units+1), int(hi32)%(units+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		src := make([]complex128, r*m*s)
		for i := range src {
			j := 16 * i % (len(raw) - len(raw)%8)
			k := (j + 8) % (len(raw) - len(raw)%8)
			src[i] = complex(math.Float64frombits(binary.LittleEndian.Uint64(raw[j:])),
				math.Float64frombits(binary.LittleEndian.Uint64(raw[k:])))
		}
		var e stageEdge
		e.conj = edge&1 != 0
		if edge&2 != 0 {
			e.scale = 1 / float64(units*r)
		}
		checkMixedRange(t, st, src, []int{lo, hi}, e)
	})
}
