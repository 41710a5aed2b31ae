package fft

import (
	"encoding/binary"
	"fmt"
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
// edges unfused: in holds the stage's inputs with the load edges
// already applied, the unit's outputs land in the scratch full (as long
// as the stage) and go to dst through the store edges one at a time.
func mixedOracle(st *MixedStage, dst, full, in []complex128, u int, e stageEdge) {
	p, q := u/st.S, u%st.S
	st.scalar(full, in, p, p+1, q, q+1, stageEdge{})
	for d := 0; d < st.R; d++ {
		k := st.R*st.S*p + d*st.S + q
		y := full[k]
		if e.scale != 0 {
			y = complex(real(y)*e.scale, -imag(y)*e.scale)
		}
		if e.out != nil {
			if k >= len(e.out) {
				continue
			}
			y *= e.out[k]
			if e.post != 0 {
				y = complex(real(y)*e.post, -imag(y)*e.post)
			}
		}
		dst[k] = y
	}
}

// checkMixedRange runs units [lo, hi) of st on src both ways — st.run
// over the given cuts, the oracle unit by unit — and reports the first
// output whose bits differ. An input operand's stage reads only the
// first len(e.in) elements of src (the rest hold data that must not
// show); an output operand's writes a dst len(e.out) long, and nothing
// after it; with inPlace (M = 1) the stage writes src itself.
func checkMixedRange(t *testing.T, st *MixedStage, src []complex128, cuts []int, e stageEdge, inPlace bool) {
	t.Helper()
	n := st.R * st.M * st.S
	in := make([]complex128, n)
	for i, x := range src {
		if e.conj {
			x = complex(real(x), -imag(x))
		}
		if e.in != nil {
			if i < len(e.in) {
				x *= e.in[i]
			} else {
				x = 0
			}
		}
		in[i] = x
	}
	m := n
	if e.out != nil {
		m = len(e.out)
	}
	want := make([]complex128, m)
	got := make([]complex128, n+4) // past m: a guard no store may touch
	for i := range got {
		got[i] = sentinel
	}
	copy(want, got)
	x := append([]complex128(nil), src...)
	if inPlace {
		copy(want, src)
		got = x
	}
	full := make([]complex128, n)
	for u := cuts[0]; u < cuts[len(cuts)-1]; u++ {
		mixedOracle(st, want, full, in, u, e)
	}
	from := x
	if e.in != nil {
		from = x[:len(e.in)]
	}
	for i := 1; i < len(cuts); i++ {
		st.run(got[:m], from, cuts[i-1], cuts[i], e)
	}
	for i := range got {
		w := sentinel
		if i < m {
			w = want[i]
		}
		if !sameOrNaN(real(got[i]), real(w)) || !sameOrNaN(imag(got[i]), imag(w)) {
			t.Fatalf("R=%d M=%d S=%d edge %s cuts %v: out[%d] = %v (%#x, %#x), Go codelet %v (%#x, %#x)",
				st.R, st.M, st.S, edgeString(e, inPlace), cuts, i, got[i], math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
				w, math.Float64bits(real(w)), math.Float64bits(imag(w)))
		}
	}
}

func edgeString(e stageEdge, inPlace bool) string {
	return fmt.Sprintf("{conj %v in %d scale %g out %d post %g in-place %v}", e.conj, len(e.in), e.scale, len(e.out), e.post, inPlace)
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

// mixedCase is one way to run a stage: its edges, and whether it runs
// in place.
type mixedCase struct {
	e       stageEdge
	inPlace bool
}

// mixedEdges lists the cases a stage is checked with: no edge, the
// inverse's conj and scale, an input operand ending at a random element
// (its lanes cut in mid-range), and on an M = 1 stage an output operand
// with a random store limit, both operands at once, and the stage run
// in place. Operand values are mixedValue's.
func mixedEdges(rng *rand.Rand, st *MixedStage) []mixedCase {
	n := st.R * st.M * st.S
	operand := func(k int) []complex128 {
		v := make([]complex128, k)
		for i := range v {
			v[i] = complex(mixedValue(rng, false), mixedValue(rng, false))
		}
		return v
	}
	cs := []mixedCase{
		{}, {e: stageEdge{conj: true}}, {e: stageEdge{scale: 1.0 / 3000}}, {e: stageEdge{conj: true, scale: 0.125}},
		{e: stageEdge{in: operand(1 + rng.Intn(n))}},
		{e: stageEdge{conj: true, in: operand(1 + rng.Intn(n)), scale: 0.5}},
	}
	if st.M == 1 {
		cs = append(cs,
			mixedCase{e: stageEdge{out: operand(1 + rng.Intn(n))}},
			mixedCase{e: stageEdge{conj: true, scale: 1.0 / 3000, out: operand(1 + rng.Intn(n)), post: 1.0 / 3}},
			mixedCase{e: stageEdge{in: operand(1 + rng.Intn(n)), out: operand(n)}},
			mixedCase{inPlace: true},
			mixedCase{e: stageEdge{conj: true, scale: 0.125}, inPlace: true},
		)
	}
	return cs
}

func TestMixedCodeletsMatchGo(t *testing.T) {
	t.Logf("vector backend: %s", soaAccel)
	rng := rand.New(rand.NewSource(1))
	for _, r := range []int{2, 3, 4, 5, 7} {
		for _, s := range []int{1, 2, 3, 4, 5, 16, 64, 1024} {
			for _, m := range []int{1, 2, 3, 5, 8, 27} {
				if r*m*s > 1<<16 {
					continue
				}
				st := mixedStage(r, m, s)
				src := make([]complex128, r*m*s)
				units := st.Units()
				for _, c := range mixedEdges(rng, st) {
					for _, zeros := range []bool{false, true} {
						for i := range src {
							src[i] = complex(mixedValue(rng, zeros), mixedValue(rng, zeros))
						}
						checkMixedRange(t, st, src, []int{0, units}, c.e, c.inPlace)
						// A random partition: cuts in mid-row, single
						// units, whole rows, as a parallel run shards
						// the stage.
						cuts := []int{0}
						for c := 0; c < units; {
							c = min(units, c+1+rng.Intn(max(1, 2*s+3)))
							cuts = append(cuts, c)
						}
						checkMixedRange(t, st, src, cuts, c.e, c.inPlace)
					}
				}
			}
		}
	}
}

// mixedSpecials is the bits of +0, −0, +Inf, −Inf, the smallest
// subnormal, a negative subnormal, a quiet NaN and 1.5, eight bytes
// each: a fuzz seed that puts them into inputs and operands alike.
var mixedSpecials = []byte{
	0, 0, 0, 0, 0, 0, 0, 0,
	0, 0, 0, 0, 0, 0, 0, 0x80,
	0, 0, 0, 0, 0, 0, 0xf0, 0x7f,
	0, 0, 0, 0, 0, 0, 0xf0, 0xff,
	1, 0, 0, 0, 0, 0, 0, 0,
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x80,
	0, 0, 0, 0, 0, 0, 0xf8, 0x7f,
	0, 0, 0, 0, 0, 0, 0xf8, 0x3f,
}

// FuzzMixedCodelets checks the same property on one stage shape, unit
// range, edge and input the fuzzer picks: raw supplies the float bits,
// eight bytes a number, repeated to fill the stage and the operands.
// The edge's bits: 1 conj, 2 scale, 4 an input operand, 8 an output
// operand, 16 in place, 32 post; an output operand or in place makes
// M = 1, and lim16 sets the operands' lengths.
func FuzzMixedCodelets(f *testing.F) {
	f.Add(uint8(4), uint16(1), uint16(6), uint32(0), uint32(24), uint8(1), uint16(0), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 2, 3, 4, 5, 6, 7, 0x80})
	f.Add(uint8(3), uint16(5), uint16(3), uint32(2), uint32(13), uint8(2), uint16(0), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf8, 0xff})
	f.Add(uint8(5), uint16(16), uint16(2), uint32(7), uint32(30), uint8(0), uint16(0), []byte{0x18, 0x2d, 0x44, 0x54, 0xfb, 0x21, 0x09, 0x40})
	f.Add(uint8(2), uint16(3), uint16(4), uint32(1), uint32(11), uint8(3), uint16(0), []byte{0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(2), uint16(0), uint16(16), uint32(0), uint32(17), uint8(4|1), uint16(37), mixedSpecials)    // input operand, S = 1
	f.Add(uint8(4), uint16(0), uint16(40), uint32(3), uint32(41), uint8(4), uint16(75), mixedSpecials)      // its lanes cut mid-pair
	f.Add(uint8(0), uint16(11), uint16(0), uint32(0), uint32(12), uint8(8|2|32), uint16(41), mixedSpecials) // output operand, R = 2
	f.Add(uint8(3), uint16(30), uint16(0), uint32(5), uint32(29), uint8(8|2), uint16(77), mixedSpecials)    // its store limit mid-lane
	f.Add(uint8(1), uint16(6), uint16(0), uint32(0), uint32(7), uint8(16|1|2), uint16(0), mixedSpecials)    // in place
	f.Fuzz(func(t *testing.T, radix uint8, s16, m16 uint16, lo32, hi32 uint32, edge uint8, lim16 uint16, raw []byte) {
		if len(raw) < 8 {
			return
		}
		r := []int{2, 3, 4, 5, 7}[int(radix)%5]
		s, m := 1+int(s16)%96, 1+int(m16)%48
		if edge&(8|16) != 0 {
			m = 1
		}
		st := mixedStage(r, m, s)
		n, units := r*m*s, st.Units()
		lo, hi := int(lo32)%(units+1), int(hi32)%(units+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		words := len(raw) / 8
		value := func(i int) complex128 {
			j, k := 2*i%words, (2*i+1)%words
			return complex(math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:])),
				math.Float64frombits(binary.LittleEndian.Uint64(raw[8*k:])))
		}
		src := make([]complex128, n)
		for i := range src {
			src[i] = value(i)
		}
		operand := func(k int) []complex128 {
			v := make([]complex128, k)
			for i := range v {
				v[i] = value(i + 1)
			}
			return v
		}
		lim := 1 + int(lim16)%n
		var e stageEdge
		e.conj = edge&1 != 0
		if edge&2 != 0 {
			e.scale = 1 / float64(units*r)
		}
		if edge&4 != 0 {
			e.in = operand(lim)
		}
		inPlace := edge&16 != 0 && edge&(4|8) == 0
		if edge&8 != 0 {
			if e.in != nil {
				e.out = operand(n) // with both, the output operand spans the stage
			} else {
				e.out = operand(lim)
			}
			if edge&32 != 0 {
				e.post = 0.25
			}
		}
		checkMixedRange(t, st, src, []int{lo, hi}, e, inPlace)
	})
}
