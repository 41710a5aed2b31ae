package fft

// The SoA schedule's level sweeps as they ran before the blocked passes,
// kept as the oracle the blocked passes are held to bit for bit: one
// whole-array pass per level sweep (per fused level pair for
// KernelSoARadix4), in soaQuantum-butterfly units, then a separate
// unpack pass.

// soaQuantum is the butterfly count of one unit of an oracle sweep.
const soaQuantum = 4096

// soaPassShape resolves (stage ≥ 1, pass) to the sweep's base global
// level and whether it is a fused pair.
func (pl *Plan) soaPassShape(stage, pass int, kern Kernel) (gl int, pair bool) {
	l0 := pl.LogP * stage
	v := pl.Levels(stage)
	if kern.Concrete() == KernelSoARadix2 {
		return l0 + pass, false
	}
	if 2*pass+1 < v {
		return l0 + 2*pass, true
	}
	return l0 + v - 1, false // odd leftover level, swept radix-2
}

// soaPassButterflies returns the total butterfly count of a sweep
// pass: N/4 quad-butterflies for a fused pair, N/2 otherwise.
func (pl *Plan) soaPassButterflies(stage, pass int, kern Kernel) int64 {
	if _, pair := pl.soaPassShape(stage, pass, kern); pair {
		return int64(pl.N) / 4
	}
	return int64(pl.N) / 2
}

// soaPassUnits returns the unit count of sweep (stage, pass): the
// pass's butterflies in soaQuantum-sized chunks.
func (pl *Plan) soaPassUnits(stage, pass int, kern Kernel) int {
	nb := pl.soaPassButterflies(stage, pass, kern)
	return int((nb + soaQuantum - 1) / soaQuantum)
}

// soaRunPass executes units [lo,hi) of one sweep (stage ≥ 1) on the
// frame's planes.
func (pl *Plan) soaRunPass(stage, pass, lo, hi int, f *SoAFrame, st *SoATwiddles, kern Kernel) {
	gl, pair := pl.soaPassShape(stage, pass, kern)
	b0 := int64(lo) * soaQuantum
	b1 := int64(hi) * soaQuantum
	if nb := pl.soaPassButterflies(stage, pass, kern); b1 > nb {
		b1 = nb
	}
	if b0 >= b1 {
		return
	}
	if pair {
		pl.soaSweepPair(gl, b0, b1, f, st)
	} else {
		pl.soaSweep2(gl, b0, b1, f, st)
	}
}

// soaLevelSweeps runs every oracle sweep over its whole unit range: what
// SoASweeps computes, one whole-array pass per sweep.
func (pl *Plan) soaLevelSweeps(f *SoAFrame, st *SoATwiddles, kern Kernel) {
	for stage := 1; stage < pl.NumStages; stage++ {
		for pass, np := 0, pl.SoAPasses(stage, kern); pass < np; pass++ {
			pl.soaRunPass(stage, pass, 0, pl.soaPassUnits(stage, pass, kern), f, st, kern)
		}
	}
}

// soaSweep2 applies global level gl to butterflies [b0,b1) of the
// planes: butterfly b pairs element blk·2^(gl+1)+j with its partner at
// distance 2^gl (blk = b/2^gl, j = b mod 2^gl), twiddle Lvl[gl][j].
// Runs of full blocks collapse into one primitive call.
func (pl *Plan) soaSweep2(gl int, b0, b1 int64, f *SoAFrame, st *SoATwiddles) {
	half := int64(1) << gl
	twr, twi := st.LvlRe[gl], st.LvlIm[gl]
	for b := b0; b < b1; {
		blk, j0 := b/half, b%half
		base := blk*2*half + j0
		if j0 == 0 && b1-b >= half {
			nblk := (b1 - b) / half
			soaBfly2(f.Re[base:], f.Im[base:], twr, twi, int(half), int(half), int(nblk))
			b += nblk * half
			continue
		}
		take := half - j0
		if take > b1-b {
			take = b1 - b
		}
		soaBfly2(f.Re[base:], f.Im[base:], twr[j0:], twi[j0:], int(half), int(take), 1)
		b += take
	}
}

// soaSweepPair applies the fused level pair (gl, gl+1) to quad
// butterflies [b0,b1): quad b spans x0..x3 at distance m = 2^gl from
// base blk·4m+j, with wa = Lvl[gl] and wb = Lvl[gl+1][:m].
func (pl *Plan) soaSweepPair(gl int, b0, b1 int64, f *SoAFrame, st *SoATwiddles) {
	m := int64(1) << gl
	war, wai := st.LvlRe[gl], st.LvlIm[gl]
	wbr, wbi := st.LvlRe[gl+1][:m], st.LvlIm[gl+1][:m]
	for b := b0; b < b1; {
		blk, j0 := b/m, b%m
		base := blk*4*m + j0
		if j0 == 0 && b1-b >= m {
			nblk := (b1 - b) / m
			soaBfly4(f.Re[base:], f.Im[base:], war, wai, wbr, wbi, int(m), int(m), int(nblk))
			b += nblk * m
			continue
		}
		take := m - j0
		if take > b1-b {
			take = b1 - b
		}
		soaBfly4(f.Re[base:], f.Im[base:], war[j0:], wai[j0:], wbr[j0:], wbi[j0:], int(m), int(take), 1)
		b += take
	}
}

// soaLevelTransform is the whole SoA transform as the per-sweep schedule
// ran it: SoAPack (bit reversal, stage 0 and, on the inverse, the leading
// conjugation), the oracle sweeps, then the unpack pass — conj·1/N on
// the inverse.
func (pl *Plan) soaLevelTransform(data, w []complex128, kern Kernel, inverse bool) {
	st := pl.SoATwiddles(w)
	f := GetSoAFrame(pl.N)
	pl.SoAPack(f, data, 0, pl.SoAPackTiles(), st, kern, inverse)
	pl.soaLevelSweeps(f, st, kern)
	if inverse {
		f.UnpackConjScale(data, 0, pl.N, 1/float64(pl.N))
	} else {
		f.Unpack(data, 0, pl.N)
	}
	f.Release()
}
