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
		storeOracle(dst, k, full[k], e)
	}
}

// storeOracle stores output y of element k into dst through the store
// edges, one sweep at a time: conj·scale, the output operand (nothing
// stored at k ≥ len(out)), conj·post.
func storeOracle(dst []complex128, k int, y complex128, e stageEdge) {
	if e.scale != 0 {
		y = complex(real(y)*e.scale, -imag(y)*e.scale)
	}
	if e.out != nil {
		if k >= len(e.out) {
			return
		}
		y *= e.out[k]
		if e.post != 0 {
			y = complex(real(y)*e.post, -imag(y)*e.post)
		}
	}
	dst[k] = y
}

// checkMixedRange runs units [lo, hi) of st on src both ways — st's
// pass over the given cuts, the oracle unit by unit — and reports the
// first output whose bits differ. An input operand's stage reads only the
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
	pass := mixedPass{st: []MixedStage{*st}, e: e}
	for i := 1; i < len(cuts); i++ {
		pass.run(got[:m], from, cuts[i-1], cuts[i])
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
// a stray 0·x term or a swapped operand.
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
// (its lanes cut in mid-range), and on an M = 1 stage lastEdges' cases.
// Operand values are mixedValue's.
func mixedEdges(rng *rand.Rand, st *MixedStage) []mixedCase {
	n := st.R * st.M * st.S
	cs := []mixedCase{
		{}, {e: stageEdge{conj: true}}, {e: stageEdge{scale: 1.0 / 3000}}, {e: stageEdge{conj: true, scale: 0.125}},
		{e: stageEdge{in: mixedOperand(rng, 1+rng.Intn(n))}},
		{e: stageEdge{conj: true, in: mixedOperand(rng, 1+rng.Intn(n)), scale: 0.5}},
	}
	if st.M == 1 {
		cs = append(cs, lastEdges(rng, n)...)
	}
	return cs
}

// lastEdges lists mixedEdges' cases for a last stage (M = 1) spanning n
// elements: an output operand with a random store limit, conj and scale
// with an operand and post-scale, both operands at once, and the stage
// run in place — bare, with conj and scale (the inverse's last pass),
// and with a whole-length operand (Bluestein's forward half).
func lastEdges(rng *rand.Rand, n int) []mixedCase {
	return []mixedCase{
		{e: stageEdge{out: mixedOperand(rng, 1+rng.Intn(n))}},
		{e: stageEdge{conj: true, scale: 1.0 / 3000, out: mixedOperand(rng, 1+rng.Intn(n)), post: 1.0 / 3}},
		{e: stageEdge{in: mixedOperand(rng, 1+rng.Intn(n)), out: mixedOperand(rng, n)}},
		{inPlace: true},
		{e: stageEdge{conj: true, scale: 0.125}, inPlace: true},
		{e: stageEdge{out: mixedOperand(rng, n)}, inPlace: true},
	}
}

// mixedOperand returns k operand values drawn by mixedValue.
func mixedOperand(rng *rand.Rand, k int) []complex128 {
	v := make([]complex128, k)
	for i := range v {
		v[i] = complex(mixedValue(rng, false), mixedValue(rng, false))
	}
	return v
}

// pairPassOf builds a fused pair of radix r: stage a splits r²·m-point
// sub-transforms across s copies, stage b the r·m-point results across
// r·s — the shape of stages i, i+1 of a plan, where s is the product of
// the radices before them.
func pairPassOf(r, m, s int) mixedPass {
	return mixedPass{st: []MixedStage{*mixedStage(r, r*m, s), *mixedStage(r, m, r*s)}}
}

// checkPairRange runs fused units [cuts[0], cuts[len(cuts)−1]) of pr on
// src both ways — pr.run over the given cuts with the store edges e,
// and the two stages' Go codelets in sequence over the whole array, the
// edges then applied one sweep at a time (storeOracle) — and reports
// the first output whose bits differ. An output the range does not
// write must keep the sentinel, as must a guard past the array; an
// output operand's pass writes a dst len(e.out) long, and nothing after
// it. With store edges or inPlace, pr must be a last pair (M = 1);
// inPlace runs it in src itself, whose unwritten elements keep src's
// values.
func checkPairRange(t *testing.T, pr mixedPass, src []complex128, cuts []int, e stageEdge, inPlace bool) {
	t.Helper()
	a, b := &pr.st[0], &pr.st[1]
	r, s := a.R, a.S
	n := r * a.M * s
	mid, full := make([]complex128, n), make([]complex128, n)
	a.scalar(mid, src, 0, a.M, 0, s, stageEdge{})
	b.scalar(full, mid, 0, b.M, 0, b.S, stageEdge{})
	m := n
	if e.out != nil {
		m = len(e.out)
	}
	want, got := make([]complex128, n+4), make([]complex128, n+4)
	for i := range want {
		want[i], got[i] = sentinel, sentinel
	}
	x := append([]complex128(nil), src...)
	if inPlace {
		copy(want, src)
		got = x
	}
	for u := cuts[0]; u < cuts[len(cuts)-1]; u++ {
		p, q := u/s, u%s
		for d := range r {
			for d2 := range r {
				k := q + s*d + r*s*d2 + r*r*s*p
				storeOracle(want, k, full[k], e)
			}
		}
	}
	pr.e = e
	for i := 1; i < len(cuts); i++ {
		pr.run(got[:m], x, cuts[i-1], cuts[i])
	}
	for i := range got {
		if !sameOrNaN(real(got[i]), real(want[i])) || !sameOrNaN(imag(got[i]), imag(want[i])) {
			t.Fatalf("fused %d×%d M=%d S=%d edge %s cuts %v: out[%d] = %v (%#x, %#x), Go codelets %v (%#x, %#x)",
				r, r, b.M, s, edgeString(e, inPlace), cuts, i, got[i], math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
				want[i], math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
		}
	}
}

// randomCuts partitions [0, units) at random: cuts in mid-row, single
// units, whole rows, as a parallel run shards a pass of rows of s.
func randomCuts(rng *rand.Rand, units, s int) []int {
	cuts := []int{0}
	for c := 0; c < units; {
		c = min(units, c+1+rng.Intn(max(1, 2*s+3)))
		cuts = append(cuts, c)
	}
	return cuts
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
				units := st.M * st.S
				for _, c := range mixedEdges(rng, st) {
					for _, zeros := range []bool{false, true} {
						for i := range src {
							src[i] = complex(mixedValue(rng, zeros), mixedValue(rng, zeros))
						}
						checkMixedRange(t, st, src, []int{0, units}, c.e, c.inPlace)
						checkMixedRange(t, st, src, randomCuts(rng, units, s), c.e, c.inPlace)
					}
				}
			}
		}
	}
	// Fused pairs: the vector pair codelets, and the Go composition in
	// place that takes an odd q left over (at M = 1 the stack tile of
	// lastUnit), against the two stages' Go codelets in sequence. m = 130
	// runs the Go pair over more than one block of pairRows rows. A last
	// pair (m = 1) also runs lastEdges' cases, their load edges dropped:
	// a pair is never stage 0.
	for _, r := range []int{3, 4, 5} {
		for _, s := range []int{1, 2, 3, 4, 5, 16, 64, 1024} {
			for _, m := range []int{1, 2, 3, 5, 8, 27, 130} {
				if r*r*m*s > 1<<16 {
					continue
				}
				pr := pairPassOf(r, m, s)
				src := make([]complex128, r*r*m*s)
				units := pr.units()
				cs := []mixedCase{{}}
				if m == 1 {
					cs = append(cs, mixedCase{e: stageEdge{scale: 1.0 / 3000}})
					for _, c := range lastEdges(rng, len(src)) {
						c.e.conj, c.e.in = false, nil
						cs = append(cs, c)
					}
				}
				for _, c := range cs {
					for _, zeros := range []bool{false, true} {
						for i := range src {
							src[i] = complex(mixedValue(rng, zeros), mixedValue(rng, zeros))
						}
						checkPairRange(t, pr, src, []int{0, units}, c.e, c.inPlace)
						checkPairRange(t, pr, src, randomCuts(rng, units, s), c.e, c.inPlace)
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
// M = 1, and lim16 sets the operands' lengths. With bit 64 set the
// fuzzer's shape is a fused pair of radix 3, 4 or 5 instead
// (pairPassOf(r, m, s)), checked against the two stages' Go codelets in
// sequence; an output operand or in place makes it a last pair (m = 1),
// and a last pair honours the store-edge bits 2, 8 and 32 and the
// in-place bit 16 (in place, the output operand spans the pair: the
// shape of Bluestein's forward half). The load-edge bits 1 and 4 are
// ignored there, as a pair is never stage 0.
func FuzzMixedCodelets(f *testing.F) {
	f.Add(uint8(4), uint16(1), uint16(6), uint32(0), uint32(24), uint8(1), uint16(0), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 2, 3, 4, 5, 6, 7, 0x80})
	f.Add(uint8(3), uint16(5), uint16(3), uint32(2), uint32(13), uint8(2), uint16(0), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf8, 0xff})
	f.Add(uint8(5), uint16(16), uint16(2), uint32(7), uint32(30), uint8(0), uint16(0), []byte{0x18, 0x2d, 0x44, 0x54, 0xfb, 0x21, 0x09, 0x40})
	f.Add(uint8(2), uint16(3), uint16(4), uint32(1), uint32(11), uint8(3), uint16(0), []byte{0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(2), uint16(0), uint16(16), uint32(0), uint32(17), uint8(4|1), uint16(37), mixedSpecials)                                            // input operand, S = 1
	f.Add(uint8(4), uint16(0), uint16(40), uint32(3), uint32(41), uint8(4), uint16(75), mixedSpecials)                                              // its lanes cut mid-pair
	f.Add(uint8(0), uint16(11), uint16(0), uint32(0), uint32(12), uint8(8|2|32), uint16(41), mixedSpecials)                                         // output operand, R = 2
	f.Add(uint8(3), uint16(30), uint16(0), uint32(5), uint32(29), uint8(8|2), uint16(77), mixedSpecials)                                            // its store limit mid-lane
	f.Add(uint8(1), uint16(6), uint16(0), uint32(0), uint32(7), uint8(16|1|2), uint16(0), mixedSpecials)                                            // in place
	f.Add(uint8(1), uint16(3), uint16(2), uint32(1), uint32(11), uint8(64), uint16(0), mixedSpecials)                                               // fused 4×4, S = 4
	f.Add(uint8(2), uint16(2), uint16(4), uint32(0), uint32(15), uint8(64), uint16(0), mixedSpecials)                                               // fused 5×5, odd S
	f.Add(uint8(0), uint16(8), uint16(0), uint32(2), uint32(9), uint8(64), uint16(0), []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 2, 3, 4, 5, 6, 7, 0x40}) // fused 3×3, M = 1
	f.Add(uint8(2), uint16(6), uint16(5), uint32(1), uint32(7), uint8(64|8|2|32), uint16(100), mixedSpecials)                                       // last 5×5: operand, its limit mid-row
	f.Add(uint8(1), uint16(3), uint16(0), uint32(0), uint32(5), uint8(64|16|2), uint16(0), mixedSpecials)                                           // last 4×4 in place, odd S, scaled
	f.Add(uint8(0), uint16(2), uint16(0), uint32(0), uint32(3), uint8(64|16|8), uint16(0), mixedSpecials)                                           // last 3×3 in place with an operand
	f.Fuzz(func(t *testing.T, radix uint8, s16, m16 uint16, lo32, hi32 uint32, edge uint8, lim16 uint16, raw []byte) {
		if len(raw) < 8 {
			return
		}
		r := []int{2, 3, 4, 5, 7}[int(radix)%5]
		s, m := 1+int(s16)%96, 1+int(m16)%48
		words := len(raw) / 8
		value := func(i int) complex128 {
			j, k := 2*i%words, (2*i+1)%words
			return complex(math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:])),
				math.Float64frombits(binary.LittleEndian.Uint64(raw[8*k:])))
		}
		cut := func(units int) (int, int) {
			lo, hi := int(lo32)%(units+1), int(hi32)%(units+1)
			return min(lo, hi), max(lo, hi)
		}
		if edge&64 != 0 {
			r = []int{3, 4, 5}[int(radix)%3]
			pm := 1 + m%12
			if edge&(8|16) != 0 {
				pm = 1
			}
			pr := pairPassOf(r, pm, 1+s%48)
			src := make([]complex128, r*pr.st[0].M*pr.st[0].S)
			for i := range src {
				src[i] = value(i)
			}
			var e stageEdge
			inPlace := pm == 1 && edge&16 != 0
			if pm == 1 {
				if edge&2 != 0 {
					e.scale = 1 / float64(len(src))
				}
				if edge&8 != 0 {
					k := 1 + int(lim16)%len(src)
					if inPlace {
						k = len(src)
					}
					e.out = make([]complex128, k)
					for i := range e.out {
						e.out[i] = value(i + 1)
					}
					if edge&32 != 0 {
						e.post = 0.25
					}
				}
			}
			lo, hi := cut(pr.units())
			checkPairRange(t, pr, src, []int{lo, hi}, e, inPlace)
			return
		}
		if edge&(8|16) != 0 {
			m = 1
		}
		st := mixedStage(r, m, s)
		n, units := r*m*s, m*s
		lo, hi := cut(units)
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

// poison fills the source of a closure check outside the unit under
// test: a NaN whose payload differs from sentinel's, so a read of it
// shows as a NaN output, and a store of that NaN as a stray write.
var poison = complex(math.Float64frombits(0x7ff8bad000000001), math.Float64frombits(0x7ff8bad000000002))

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) && math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// pairSets returns the elements fused unit u of pr reads from src and
// writes to dst, by the index map of mixedPass.
func pairSets(pr mixedPass, u int, reads, writes []int) ([]int, []int) {
	r, s, m := pr.st[0].R, pr.st[0].S, pr.st[1].M
	p, q := u/s, u%s
	for c := range r {
		for c2 := range r {
			reads = append(reads, q+s*(p+m*(c2+r*c)))
			writes = append(writes, q+s*c+r*s*c2+r*r*s*p)
		}
	}
	return reads, writes
}

// TestMixedPairClosure checks the executor's contract on every fused
// pass of the mixed and Bluestein lengths TestDefaultPlanDigests hashes
// (Bluestein's by its M): the units' read sets, and their write sets,
// are pairwise disjoint and each covers the array; and a unit run on its
// own — or a random run of units, which the vector codelets take —
// reads nothing outside its read set and writes all of its write set
// and nothing else. The source is poison but for the run's read set, so
// a stray read shows as a NaN output; the destination is sentinel, so a
// stray write shows where no unit should have stored. It also checks
// that the schedule's passes are the stages with the fused pairs folded,
// passCount of them. 59049 = 3^10 and 140625 = 3²·5⁶ fuse pairs with an
// odd S, whose last q column runs in Go. A pair that ends the plan
// (checkLastPair) is also run in place, and with an output operand
// into a shorter dst — for a Bluestein M, its inverse half storing the
// caller's N points. A build without the pair codelets fuses nothing.
func TestMixedPairClosure(t *testing.T) {
	ns := []int{1, 3, 6, 7, 12, 1000, 12005, 19683, 49152, 59049, 140625, 1000000, 3 << 18}
	short := map[int]int{} // a Bluestein M's N
	for _, n := range []int{13, 1009, 4099, 65537, 129763, 1<<18 + 3} {
		ns = append(ns, BluesteinLen(n))
		short[BluesteinLen(n)] = n
	}
	rng := rand.New(rand.NewSource(3))
	fusedPasses, lastPairs := 0, 0
	for _, n := range ns {
		mp, err := NewMixedPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		passes := mp.Schedule(false).Passes
		j := 0
		for i := 0; i < len(mp.Stages); i, j = i+1, j+1 {
			if j >= len(passes) {
				t.Fatalf("%v: %d passes for %d stages", mp, len(passes), len(mp.Stages))
			}
			st, label := &mp.Stages[i], passes[j].Label
			units := st.M * st.S
			if fusedAt(mp.Radices, i) {
				pr := mixedPass{st: mp.Stages[i : i+2]}
				units = pr.units()
				checkPairClosure(t, mp, i, pr, rng)
				if i+2 == len(mp.Stages) {
					lim, ok := short[n]
					if !ok {
						lim = n - 1 - rng.Intn(n/2)
					}
					checkLastPair(t, mp, i, pr, lim, rng)
					lastPairs++
				}
				fusedPasses++
				i++
			}
			if passes[j].Units != units || label != PassStageMixed {
				t.Fatalf("%v pass %d: %d units labelled %q, want %d %q", mp, j, passes[j].Units, label, units, PassStageMixed)
			}
		}
		if j != len(passes) || j != passCount(mp.Radices) {
			t.Fatalf("%v: %d passes, the stages make %d, passCount %d", mp, len(passes), j, passCount(mp.Radices))
		}
	}
	if (fusedPasses == 0 || lastPairs == 0) && hasPairCodelet(4) {
		t.Fatalf("%d fused passes, %d of them last, among the lengths", fusedPasses, lastPairs)
	}
}

// checkLastPair checks the pair pr = stages i, i+1 that ends mp (M = 1:
// unit q reads and writes the same r² elements, q + S·j) in the two ways
// only a last pass runs. In place: a run of units, the array poison but
// for their elements, leaves each of them a number and the rest poison.
// Into a dst lim long, through an output operand as long, with conj·scale
// and post: a run stores its elements below lim, read from its own, and
// nothing else, nor past dst into the guard above it.
func checkLastPair(t *testing.T, mp *MixedPlan, i int, pr mixedPass, lim int, rng *rand.Rand) {
	t.Helper()
	n, units := mp.N, pr.units()
	var set []int
	cuts := [][]int{{0, units}, randomCuts(rng, units, pr.st[0].S)}
	for u := range units {
		cuts = append(cuts, []int{u, u + 1})
	}

	arr := make([]complex128, n)
	for k := range arr {
		arr[k] = poison
	}
	for _, c := range cuts {
		for k := 1; k < len(c); k++ {
			set = set[:0]
			for u := c[k-1]; u < c[k]; u++ {
				_, set = pairSets(pr, u, nil, set)
			}
			for _, e := range set {
				arr[e] = complex(float64(e%251+1), float64(e%13))
			}
			pr.run(arr, arr, c[k-1], c[k])
			for _, e := range set {
				if y := arr[e]; y != y {
					t.Fatalf("%v stages %d+%d in place: units [%d, %d) left %v at %d: a read outside their set, or no store",
						mp, i, i+1, c[k-1], c[k], y, e)
				}
				arr[e] = poison
			}
		}
	}
	for k, y := range arr {
		if !sameBits(y, poison) {
			t.Fatalf("%v stages %d+%d in place: element %d = %v, stored outside a unit's set", mp, i, i+1, k, y)
		}
	}

	v := make([]complex128, lim)
	for k := range v {
		v[k] = complex(1, float64(k%7))
	}
	pr.e = stageEdge{scale: 1 / float64(n), out: v, post: 1 / float64(lim)}
	src, dst := make([]complex128, n), make([]complex128, lim+4)
	for k := range src {
		src[k] = poison
	}
	for k := range dst {
		dst[k] = sentinel
	}
	for _, c := range cuts {
		for k := 1; k < len(c); k++ {
			set = set[:0]
			for u := c[k-1]; u < c[k]; u++ {
				_, set = pairSets(pr, u, nil, set)
			}
			for _, e := range set {
				src[e] = complex(float64(e%251+1), float64(e%13))
			}
			pr.run(dst[:lim], src, c[k-1], c[k])
			for _, e := range set {
				if e < lim {
					if y := dst[e]; y != y {
						t.Fatalf("%v stages %d+%d into %d: units [%d, %d) stored %v at %d: a read outside their set, or no store",
							mp, i, i+1, lim, c[k-1], c[k], y, e)
					}
					dst[e] = sentinel
				}
				src[e] = poison
			}
		}
	}
	for k, y := range dst {
		if !sameBits(y, sentinel) {
			t.Fatalf("%v stages %d+%d into %d: element %d = %v, stored outside a unit's set or past the limit", mp, i, i+1, lim, k, y)
		}
	}
}

func checkPairClosure(t *testing.T, mp *MixedPlan, i int, pr mixedPass, rng *rand.Rand) {
	t.Helper()
	n, units := mp.N, pr.units()
	readBy, writtenBy := make([]int32, n), make([]int32, n)
	for k := range readBy {
		readBy[k], writtenBy[k] = -1, -1
	}
	var reads, writes []int
	for u := range units {
		reads, writes = pairSets(pr, u, reads[:0], writes[:0])
		for k, e := range reads {
			if readBy[e] >= 0 || writtenBy[writes[k]] >= 0 {
				t.Fatalf("%v stages %d+%d: unit %d reads %d (unit %d too) or writes %d (unit %d too)",
					mp, i, i+1, u, e, readBy[e], writes[k], writtenBy[writes[k]])
			}
			readBy[e], writtenBy[writes[k]] = int32(u), int32(u)
		}
	}
	for k := range n {
		if readBy[k] < 0 || writtenBy[k] < 0 {
			t.Fatalf("%v stages %d+%d: element %d read by %d, written by %d: not covered", mp, i, i+1, k, readBy[k], writtenBy[k])
		}
	}

	src, dst := make([]complex128, n), make([]complex128, n)
	for k := range src {
		src[k], dst[k] = poison, sentinel
	}
	run := func(lo, hi int) {
		reads, writes = reads[:0], writes[:0]
		for u := lo; u < hi; u++ {
			reads, writes = pairSets(pr, u, reads, writes)
		}
		for _, e := range reads {
			src[e] = complex(float64(e%251+1), float64(e%13))
		}
		for _, e := range writes {
			if !sameBits(dst[e], sentinel) {
				t.Fatalf("%v stages %d+%d: element %d written before units [%d, %d) ran", mp, i, i+1, e, lo, hi)
			}
		}
		pr.run(dst, src, lo, hi)
		for _, e := range writes {
			if y := dst[e]; y != y {
				t.Fatalf("%v stages %d+%d: units [%d, %d) stored %v at %d: a read outside their set, or no store",
					mp, i, i+1, lo, hi, y, e)
			}
			dst[e] = sentinel
		}
		for _, e := range reads {
			src[e] = poison
		}
	}
	for u := range units {
		run(u, u+1)
	}
	for _, cuts := range [][]int{{0, units}, randomCuts(rng, units, pr.st[0].S)} {
		for k := 1; k < len(cuts); k++ {
			run(cuts[k-1], cuts[k])
		}
	}
	for k, y := range dst {
		if !sameBits(y, sentinel) {
			t.Fatalf("%v stages %d+%d: element %d = %v, stored outside a unit's write set", mp, i, i+1, k, y)
		}
	}
}
