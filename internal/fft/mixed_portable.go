//go:build noasm || !amd64

package fft

// vec is where the vector codelets would run a rectangle of a pass's
// units; this build has none, so the Go codelets run it all.
func (ps mixedPass) vec(dst, src []complex128, p0, p1, q0, q1 int) bool { return false }

// hasPairCodelet reports whether a fused pair of radix r runs on a
// vector pair codelet; this build has none, so no stages fuse.
func hasPairCodelet(r int) bool { return false }
