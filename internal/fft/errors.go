package fft

import (
	"errors"
	"fmt"
)

// Sentinel errors. Constructors and entry points return them wrapped
// with context; test with errors.Is.
var (
	// ErrUnsupportedLength reports a transform length no planner in this
	// package accepts: a non-positive N everywhere, a non-power-of-two N
	// for the staged/2-D plans, an odd or < 4 N for the real-input
	// plans, or (for NewMixedPlan) an N with a prime factor outside
	// {2, 3, 5, 7}. It is the single root sentinel of the length-gate
	// hierarchy; every length rejection wraps it.
	ErrUnsupportedLength = errors.New("fft: unsupported transform length")
	// ErrBadTaskSize reports a task size P that is not a power of two
	// ≥ 2 or that exceeds the transform length.
	ErrBadTaskSize = errors.New("fft: invalid task size")
	// ErrLengthMismatch reports a caller's buffer whose length does not
	// match the plan. Every entry point with an error result returns it
	// (wrapped) before touching an element; the no-error variants and
	// plan-owned buffers (tiles, frames, tables) panic with it.
	ErrLengthMismatch = errors.New("fft: length mismatch")
)

// LengthError builds the canonical length-mismatch error, so the
// wording is uniform and errors.Is(err, ErrLengthMismatch) holds for
// every one.
func LengthError(what string, got, want int) error {
	return fmt.Errorf("%w: %s has %d elements, want %d", ErrLengthMismatch, what, got, want)
}

// BatchLengthError is LengthError for one row of a batched call: it
// names the batch index of the offending row so callers rejecting a
// whole batch (the serving daemon's 400s) can say which request was
// malformed. It wraps ErrLengthMismatch like every other length error.
func BatchLengthError(index, got, want int) error {
	return fmt.Errorf("%w: batch element %d has %d elements, want %d", ErrLengthMismatch, index, got, want)
}

// must panics with a non-nil err: how the no-error variants fail.
func must(err error) {
	if err != nil {
		panic(err)
	}
}
