package fft

// SoALevelTransform is the per-sweep oracle (soa_oracle_test.go) for the
// external tests: pl's SoA transform with one whole-array pass per level
// sweep and a separate unpack.
func SoALevelTransform(pl *Plan, data, w []complex128, kern Kernel, inverse bool) {
	pl.soaLevelTransform(data, w, kern, inverse)
}

// HasPairCodelets reports whether same-radix stage pairs fuse on this
// build: the vector pair codelets of radix 3, 4 and 5 run here. Where
// they do not, a mixed plan makes one pass per stage.
func HasPairCodelets() bool { return hasPairCodelet(4) }
