package fft

// SoALevelTransform is the per-sweep oracle (soa_oracle_test.go) for the
// external tests: pl's SoA transform with one whole-array pass per level
// sweep and a separate unpack.
func SoALevelTransform(pl *Plan, data, w []complex128, kern Kernel, inverse bool) {
	pl.soaLevelTransform(data, w, kern, inverse)
}
