package fft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Internal tests for the SoA codelets: the asm primitives must agree
// with their generic twins on every (dist, cnt, nblk) shape the sweep
// and stage-0 drivers can produce. Asm uses fused multiply-adds where
// the generic loops round intermediates, so agreement is to a few ulps,
// not bitwise — the documented asm↔generic contract.

func soaFillRand(n int, seed uint64) []float64 {
	x := make([]float64, n)
	s := seed*2862933555777941757 + 3037000493
	for i := range x {
		s = s*6364136223846793005 + 1442695040888963407
		x[i] = float64(int32(s>>32)) / float64(1<<31)
	}
	return x
}

func soaMaxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestSoABfly2AsmMatchesGeneric(t *testing.T) {
	if !soaHasAsm {
		t.Skipf("no asm codelets in this build (accel=%s)", soaAccel)
	}
	shapes := []struct{ dist, cnt, nblk int }{
		{4, 4, 1}, {4, 4, 7}, {8, 8, 3}, {16, 16, 2},
		{16, 4, 1}, {16, 8, 1}, {64, 64, 2}, {64, 12, 1},
	}
	for _, sh := range shapes {
		span := (sh.nblk-1)*2*sh.dist + sh.dist + sh.cnt
		re := soaFillRand(span, 1)
		im := soaFillRand(span, 2)
		wr := soaFillRand(sh.dist, 3)
		wi := soaFillRand(sh.dist, 4)
		gre := append([]float64(nil), re...)
		gim := append([]float64(nil), im...)
		bfly2Asm(&re[0], &im[0], &wr[0], &wi[0], sh.dist, sh.cnt, sh.nblk)
		bfly2Gen(gre, gim, wr, wi, sh.dist, sh.cnt, sh.nblk)
		if d := math.Max(soaMaxAbsDiff(re, gre), soaMaxAbsDiff(im, gim)); d > 1e-12 {
			t.Errorf("bfly2 %+v: asm/generic diff %g", sh, d)
		}
	}
}

func TestSoABfly4AsmMatchesGeneric(t *testing.T) {
	if !soaHasAsm {
		t.Skipf("no asm codelets in this build (accel=%s)", soaAccel)
	}
	shapes := []struct{ dist, cnt, nblk int }{
		{4, 4, 1}, {4, 4, 5}, {8, 8, 3}, {16, 16, 2},
		{16, 4, 1}, {32, 8, 1}, {64, 64, 1},
	}
	for _, sh := range shapes {
		span := (sh.nblk-1)*4*sh.dist + 3*sh.dist + sh.cnt
		re := soaFillRand(span, 5)
		im := soaFillRand(span, 6)
		war := soaFillRand(sh.dist, 7)
		wai := soaFillRand(sh.dist, 8)
		wbr := soaFillRand(sh.dist, 9)
		wbi := soaFillRand(sh.dist, 10)
		gre := append([]float64(nil), re...)
		gim := append([]float64(nil), im...)
		bfly4Asm(&re[0], &im[0], &war[0], &wai[0], &wbr[0], &wbi[0], sh.dist, sh.cnt, sh.nblk)
		bfly4Gen(gre, gim, war, wai, wbr, wbi, sh.dist, sh.cnt, sh.nblk)
		if d := math.Max(soaMaxAbsDiff(re, gre), soaMaxAbsDiff(im, gim)); d > 1e-12 {
			t.Errorf("bfly4 %+v: asm/generic diff %g", sh, d)
		}
	}
}

func TestSoABase4AsmMatchesGeneric(t *testing.T) {
	if !soaHasBase4 {
		t.Skipf("no base4 codelet in this build (accel=%s)", soaAccel)
	}
	for _, n := range []int{16, 32, 128} {
		re := soaFillRand(n, 11)
		im := soaFillRand(n, 12)
		gre := append([]float64(nil), re...)
		gim := append([]float64(nil), im...)
		tw := [4]float64{0.6, -0.8, 0.28, 0.96}
		base4Asm(&re[0], &im[0], n, &tw[0])
		base4Gen(gre, gim, tw[0], tw[1], tw[2], tw[3])
		if d := math.Max(soaMaxAbsDiff(re, gre), soaMaxAbsDiff(im, gim)); d > 1e-12 {
			t.Errorf("base4 n=%d: asm/generic diff %g", n, d)
		}
	}
}

// TestSoAPassPartitionInvariance pins the determinism contract the host
// engine relies on: running a pass's units — the pack's tiles, a blocked
// pass's L2-sized sets — in one span or split at random unit boundaries
// and in random order must produce bitwise-identical output, because
// units touch disjoint elements and the asm-or-generic choice depends
// only on the pass shape. The sizes give the last blocked pass 2, 4 and
// 8 units, the one that stores into the caller's array among them.
func TestSoAPassPartitionInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, logN := range []int{12, 15, 16, 17} {
		for _, p := range []int{2, 8, 64, 1 << 12} {
			pl, err := NewPlan(1<<logN, p)
			if err != nil {
				t.Fatal(err)
			}
			w := Twiddles(pl.N)
			rnd := soaFillRand(2*pl.N, uint64(logN))
			x := make([]complex128, pl.N)
			for i := range x {
				x[i] = complex(rnd[2*i], rnd[2*i+1])
			}
			for _, kern := range []Kernel{KernelSoARadix2, KernelSoARadix4} {
				for _, inverse := range []bool{false, true} {
					s := pl.Schedule(w, kern, inverse)
					whole := append([]complex128(nil), x...)
					must(s.Run(whole))
					split := append([]complex128(nil), x...)
					st := s.Acquire(split)
					for _, ps := range s.Passes {
						for _, c := range randomPartition(rng, ps.Units) {
							ps.Run(st, c[0], c[1])
						}
					}
					st.Release()
					for i := range whole {
						if math.Float64bits(real(whole[i])) != math.Float64bits(real(split[i])) ||
							math.Float64bits(imag(whole[i])) != math.Float64bits(imag(split[i])) {
							t.Fatalf("N=2^%d P=%d %v inverse=%v: element %d differs between whole-pass and partitioned execution",
								logN, p, kern, inverse, i)
						}
					}
				}
			}
		}
	}
}

// randomPartition cuts [0, units) into random nonempty chunks and
// returns them in random order.
func randomPartition(rng *rand.Rand, units int) [][2]int {
	var cs [][2]int
	for lo := 0; lo < units; {
		hi := lo + 1 + rng.Intn(units-lo)
		cs = append(cs, [2]int{lo, hi})
		lo = hi
	}
	rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return cs
}

// TestSoAGroupsCoverSweeps checks the blocked passes' geometry for
// every plan shape up to 2^30 points: the groups hold every level sweep
// once, in order; each unit's runs hold every partner of every level of
// its group (run ≤ stride < top, levels inside [stride, top) or, for
// a contiguous block, below it); higher groups' runs are at least 2^7
// points, so every call they make is lane-aligned; and the units of a
// pass tile the array.
func TestSoAGroupsCoverSweeps(t *testing.T) {
	for logN := 1; logN <= 30; logN++ {
		for logP := 1; logP <= logN; logP++ {
			pl, err := NewPlan(1<<logN, 1<<logP)
			if err != nil {
				t.Fatal(err)
			}
			u := pl.soaUnitBits()
			for _, kern := range []Kernel{KernelSoARadix2, KernelSoARadix4} {
				var seen []soaLevel
				for gi, g := range pl.soaGroups(kern) {
					name := fmt.Sprintf("N=2^%d P=2^%d %v group %d %+v", logN, logP, kern, gi, g)
					contiguous := g.run == u && g.stride == u && g.top == u
					if !contiguous && (g.run < 7 || g.run > g.stride || g.stride >= g.top || g.run+g.top-g.stride != u) {
						t.Fatalf("%s: bad unit geometry", name)
					}
					if contiguous && gi != 0 {
						t.Fatalf("%s: a contiguous block after the first group", name)
					}
					for _, l := range g.levels {
						lo, hi := l.gl, l.gl+l.width()
						if (contiguous && hi > u) || (!contiguous && (lo < g.stride || hi > g.top)) {
							t.Fatalf("%s: level sweep %+v outside the unit's levels", name, l)
						}
					}
					if logN <= 16 {
						cover := make([]int, pl.N)
						low := g.stride - g.run
						for unit := 0; unit < pl.soaUnits(); unit++ {
							o, h := (unit&(1<<low-1))<<g.run, (unit>>low)<<g.top
							for r := 0; r < 1<<(g.top-g.stride); r++ {
								for i := 0; i < 1<<g.run; i++ {
									cover[h+o+r<<g.stride+i]++
								}
							}
						}
						for i, c := range cover {
							if c != 1 {
								t.Fatalf("%s: element %d lies in %d units", name, i, c)
							}
						}
					}
					seen = append(seen, g.levels...)
				}
				if want := pl.soaLevels(kern); fmt.Sprint(seen) != fmt.Sprint(want) {
					t.Fatalf("N=2^%d P=2^%d %v: groups hold sweeps %v, want %v", logN, logP, kern, seen, want)
				}
			}
		}
	}
}

// TestSoABfly4StoreMatchesInPlace: the storing codelet the last blocked
// pass ends with must equal bfly4Asm followed by Unpack (forward) or
// UnpackConjScale (inverse) bit for bit — on every element it writes —
// and write nothing else, for the shapes the blocked passes hand it and
// the values a store must carry: ±0, ±Inf, NaN, subnormals.
func TestSoABfly4StoreMatchesInPlace(t *testing.T) {
	if !soaHasStore {
		t.Skipf("no storing codelet in this build (accel=%s)", soaAccel)
	}
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -2.5e-310}
	shapes := []struct{ dist, cnt, nblk int }{
		{4, 4, 1}, {4, 4, 5}, {16, 16, 2}, {16, 4, 1}, {32, 8, 3}, {64, 64, 4}, {256, 128, 2},
	}
	sentinel := complex(math.Float64frombits(0x7ff8dead), 0)
	for _, sh := range shapes {
		span := (sh.nblk-1)*4*sh.dist + 3*sh.dist + sh.cnt
		re := soaFillRand(span, uint64(sh.dist))
		im := soaFillRand(span, uint64(sh.cnt))
		for i, v := range special {
			re[(i*13)%span], im[(i*29+5)%span] = v, v
		}
		war, wai := soaFillRand(sh.dist, 7), soaFillRand(sh.dist, 8)
		wbr, wbi := soaFillRand(sh.dist, 9), soaFillRand(sh.dist, 10)
		for _, conj := range []bool{false, true} {
			s, neg := 1.0, 0.0
			if conj {
				s, neg = 1.0/1024, math.Copysign(0, -1)
			}
			got := make([]complex128, span)
			for i := range got {
				got[i] = sentinel
			}
			bfly4StoreAsm(&re[0], &im[0], &war[0], &wai[0], &wbr[0], &wbi[0], &got[0], sh.dist, sh.cnt, sh.nblk, s, neg)
			f := &SoAFrame{Re: append([]float64(nil), re...), Im: append([]float64(nil), im...)}
			bfly4Asm(&f.Re[0], &f.Im[0], &war[0], &wai[0], &wbr[0], &wbi[0], sh.dist, sh.cnt, sh.nblk)
			want := make([]complex128, span)
			if conj {
				f.UnpackConjScale(want, 0, span, s)
			} else {
				f.Unpack(want, 0, span)
			}
			for i := range got {
				touched := i%sh.dist < sh.cnt
				g, wv := got[i], want[i]
				if !touched {
					wv = sentinel
				}
				if math.Float64bits(real(g)) != math.Float64bits(real(wv)) || math.Float64bits(imag(g)) != math.Float64bits(imag(wv)) {
					t.Fatalf("%+v conj=%v: element %d (written=%v) = %v, want %v", sh, conj, i, touched, g, wv)
				}
			}
		}
	}
}

// TestGather4AsmMatchesGo: unlike the butterflies, the packs' column
// gather is a pure move but for a multiply by ±1, so the vector codelet
// must equal the Go loop bit for bit — on every row count it is handed
// (multiples of 4; the caller peels the rest), any row stride, and the
// values a move must carry unchanged: ±0, ±Inf, NaN, subnormals.
func TestGather4AsmMatchesGo(t *testing.T) {
	if !soaHasGather {
		t.Skipf("no gather codelet in this build (accel=%s)", soaAccel)
	}
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -2.5e-310}
	for _, rows := range []int{4, 8, 12, 64, 256} {
		for _, ld := range []int{4, 5, 7, 16, 64} {
			for _, sign := range []float64{1, -1} {
				raw := soaFillRand(2*rows*ld, uint64(rows*ld))
				for i, v := range special {
					raw[(i*37)%len(raw)] = v
				}
				runs := make([]complex128, rows*ld)
				for i := range runs {
					runs[i] = complex(raw[2*i], raw[2*i+1])
				}
				c := ld - 4 // the last four columns: the widest reach into each row
				var got, want [8][]float64
				var out [8]*float64
				for k := range got {
					got[k], want[k] = make([]float64, rows), make([]float64, rows)
					out[k] = &got[k][0]
				}
				gather4Asm(&runs[c], ld, rows, &out, sign)
				for a := 0; a < rows; a++ {
					for k := 0; k < 4; k++ {
						v := runs[a*ld+c+k]
						want[2*k][a], want[2*k+1][a] = real(v), sign*imag(v)
					}
				}
				for k := range got {
					for a := range got[k] {
						if math.Float64bits(got[k][a]) != math.Float64bits(want[k][a]) {
							t.Fatalf("rows=%d ld=%d sign=%v: output %d element %d = %v, want %v",
								rows, ld, sign, k, a, got[k][a], want[k][a])
						}
					}
				}
			}
		}
	}
}
