package fft

// SoALevelTransform is the per-sweep oracle (soa_oracle_test.go) for the
// external tests: pl's SoA transform with one whole-array pass per level
// sweep and a separate unpack.
func SoALevelTransform(pl *Plan, data, w []complex128, kern Kernel, inverse bool) {
	pl.soaLevelTransform(data, w, kern, inverse)
}

// TwoLevelTable, TwoLevelTwiddles and TwiddleDirect are the step-3
// scaling table and its entries for the external tests, which hold them
// to the element loops and the direct roots they stand for.
type TwoLevelTable = twoLevelTable

var (
	TwoLevelTwiddles = twoLevelTwiddles
	TwiddleDirect    = twiddleDirect
)

// At is ω_N^e, the table's entry product.
func (t *twoLevelTable) At(e int) complex128 { return t.at(e) }

// ScaleFrom is the scale of one column window that TransposeScaled
// feeds into its tile.
func (t *twoLevelTable) ScaleFrom(dst, src []complex128, index, k0 int) {
	t.scaleFrom(dst, src, index, k0)
}

// HasPairCodelets reports whether same-radix stage pairs fuse on this
// build: the vector pair codelets of radix 3, 4 and 5 run here. Where
// they do not, a mixed plan makes one pass per stage.
func HasPairCodelets() bool { return hasPairCodelet(4) }

// SoAStages is the SoA oracle's butterfly network for the external
// tests: on planes that already hold the input in bit-reversed order,
// stage 0 and then every blocked pass over its whole unit range, leaving
// the transform in the planes.
func SoAStages(pl *Plan, f *SoAFrame, st *SoATwiddles, kern Kernel) {
	pl.stage0(st, kern).run(f.Re, f.Im)
	SoASweeps(pl, f, st, kern)
}

// SoASweeps is SoAStages without stage 0: the blocked passes after a
// SoAPack.
func SoASweeps(pl *Plan, f *SoAFrame, st *SoATwiddles, kern Kernel) {
	gs := st.groups(kern)
	for i := range gs {
		gs[i].runUnits(0, pl.soaUnits(), f, st, soaStore{})
	}
}

// GoCodelets runs f with the vector codelets switched off: plans it
// builds run the Go codelets, one pass per mixed-radix stage, as the
// noasm build does. It must not overlap other work of the package.
func GoCodelets(f func()) {
	defer func(v bool) { soaHasAsm = v }(soaHasAsm)
	soaHasAsm = false
	f()
}
