package fft

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// A Schedule is the one description of a transform the host side has:
// an ordered list of passes separated by barriers — the paper's stages
// of independent codelets — built once at plan time and immutable
// afterwards. It says nothing about how it is run. Run executes it on
// the calling goroutine; internal/host's executor shards each pass
// across workers or steals whole schedules for the rows of a batch. All
// of them produce the same bits, because of the pass contract below.
type Schedule struct {
	// N is the length of the array a run transforms in place.
	N int
	// Stage is the label of the schedule's butterfly passes: what an
	// executor that runs whole transforms as units reports them under.
	Stage string
	// Passes run in order, each to completion before the next starts.
	Passes []Pass

	frame, work int // SoA plane and work buffer lengths a run needs; 0 = none
	span        int // Span when no pass sweeps the whole work buffer; 0 = max(N, work)
}

// Pass is one barrier-separated step. Units [0, Units) of a pass touch
// pairwise-disjoint elements and each is arithmetically self-contained,
// so Run may be called for any partition of the range, from any
// goroutines, and the result is bitwise identical to Run(st, 0, Units).
// Label names the pass to a host.Observer.
type Pass struct {
	Label string
	Units int
	Run   func(st *State, lo, hi int)
}

// Pass labels, re-exported by internal/host for its Observer.
const (
	PassBitRev = "bitrev" // bit-reversal permutation
	PassConj   = "conj"   // inverse-path conjugation sweep
	PassScale  = "scale"  // inverse-path conjugate-and-scale sweep
	PassRows   = "rows"   // 2-D row-FFT pass
	PassCols   = "cols"   // 2-D column-FFT pass

	PassFilter   = "filter"   // circular convolution's spectrum product (Filter)
	PassSegments = "segments" // overlap-save pass, one segment per unit

	PassStage           = "stage"            // radix-2 butterfly stage
	PassStageRadix4     = "stage_radix4"     // radix-4 butterfly stage
	PassStageSplitRadix = "stage_splitradix" // split-radix butterfly stage
	PassStageSoA2       = "stage_soa2"       // one SoA radix-2 blocked pass of level sweeps
	PassStageSoA4       = "stage_soa4"       // one SoA fused radix-4 blocked pass of level sweeps
	PassStageMixed      = "stage_mixed"      // one mixed-radix Stockham stage

	PassSoAPack = "soa_pack" // deinterleave + bit-reverse into planes, with stage 0

	// PassSoAUnpack labelled the reinterleave of the planes into the data
	// array. No schedule emits it since the last blocked pass stores its
	// results there itself; the label stays for readers that sum pass
	// telemetry by name, where it now reads zero.
	PassSoAUnpack = "soa_unpack"
)

// StageLabel returns the label of kern's butterfly passes.
func StageLabel(kern Kernel) string {
	switch kern.Concrete() {
	case KernelRadix4:
		return PassStageRadix4
	case KernelSplitRadix:
		return PassStageSplitRadix
	case KernelSoARadix2:
		return PassStageSoA2
	case KernelSoARadix4:
		return PassStageSoA4
	}
	return PassStage
}

// State is the per-run buffer set of a schedule: the caller's array and
// whatever the schedule declared it needs next to it. Everything but
// Data is pooled — a State is acquired per run (or per worker, for many
// runs) and released afterwards, so steady-state execution allocates
// nothing. Passes overwrite Work and Frame before reading them; stale
// contents are harmless.
type State struct {
	Data  []complex128 // the caller's array, transformed in place
	Work  []complex128 // Stockham partner or convolution array
	Frame *SoAFrame    // split planes of the SoA kernels

	own []complex128 // pooled backing array of Work
}

var statePool = sync.Pool{New: func() any { return new(State) }}

// Span is the length of the longest array a pass of s sweeps: N, or the
// work buffer when that is larger — for Bluestein, whose buffer holds
// two M-point halves, the convolution length M. It is the size an
// executor's serial/parallel cut should look at.
func (s *Schedule) Span() int {
	if s.span > 0 {
		return s.span
	}
	return max(s.N, s.work)
}

// Acquire returns a pooled State sized for s with Data set to data.
func (s *Schedule) Acquire(data []complex128) *State {
	st := statePool.Get().(*State)
	st.Data = data
	if s.frame > 0 {
		st.Frame = GetSoAFrame(s.frame)
	}
	if s.work > 0 {
		if cap(st.own) < s.work {
			st.own = make([]complex128, s.work)
		}
		st.Work = st.own[:s.work]
	}
	return st
}

// Release returns the State and its buffers to their pools.
func (st *State) Release() {
	if st.Frame != nil {
		st.Frame.Release()
	}
	st.Data, st.Work, st.Frame = nil, nil, nil
	statePool.Put(st)
}

// Check returns an error wrapping ErrLengthMismatch unless data has the
// schedule's length. Executors call it before the first pass, so a
// wrong-length array is rejected untouched.
func (s *Schedule) Check(data []complex128) error {
	if len(data) != s.N {
		return LengthError("data", len(data), s.N)
	}
	return nil
}

// Exec runs every pass of s over its whole unit range on st, on the
// calling goroutine.
func (s *Schedule) Exec(st *State) {
	for i := range s.Passes {
		p := &s.Passes[i]
		p.Run(st, 0, p.Units)
	}
}

// each runs s serially on every s.N-point vector of v in place, on one
// State: the batch of sub-FFTs of a row-column transform. A v that is
// not a whole number of vectors panics with an error wrapping
// ErrLengthMismatch.
func each(s *Schedule, v []complex128) {
	if len(v)%s.N != 0 {
		panic(fmt.Errorf("%w: %d elements are not whole %d-point vectors", ErrLengthMismatch, len(v), s.N))
	}
	st := s.Acquire(nil)
	for i := 0; i < len(v); i += s.N {
		st.Data = v[i : i+s.N]
		s.Exec(st)
	}
	st.Release()
}

// Run transforms data in place serially: check, acquire, Exec, release.
func (s *Schedule) Run(data []complex128) error {
	if err := s.Check(data); err != nil {
		return err
	}
	st := s.Acquire(data)
	s.Exec(st)
	st.Release()
	return nil
}

// operand selects the array a mixed-radix stage works on: the caller's
// data, the work buffer, or a part of it (Bluestein's two halves).
type operand func(*State) []complex128

func onData(st *State) []complex128 { return st.Data }
func onWork(st *State) []complex128 { return st.Work }

// conjugate and conjugateScale are the two elementwise sweeps of the
// conjugation identity ifft(x) = conj(fft(conj(x)))/N.
func conjugate(d []complex128) {
	for i, v := range d {
		d[i] = complex(real(v), -imag(v))
	}
}

// conjugateScale replaces d[i] by conj(d[i])·s.
func conjugateScale(d []complex128, s float64) {
	for i, v := range d {
		d[i] = complex(real(v)*s, -imag(v)*s)
	}
}

// conjPass and scalePass wrap the identity's sweeps over the n
// elements of the caller's array as passes; inverted brackets a forward
// pass list with them.
func conjPass(n int) Pass {
	return Pass{PassConj, n, func(st *State, lo, hi int) { conjugate(st.Data[lo:hi]) }}
}

func scalePass(n int) Pass {
	inv := 1 / float64(n)
	return Pass{PassScale, n, func(st *State, lo, hi int) {
		conjugateScale(st.Data[lo:hi], inv)
	}}
}

func inverted(forward []Pass, n int) []Pass {
	ps := append([]Pass{conjPass(n)}, forward...)
	return append(ps, scalePass(n))
}

// schedCache memoizes a plan's schedules per (concrete kernel,
// direction). The first use of a kernel builds both directions, so a
// warmed-up plan never builds on a hot path; builders that race store
// equivalent schedules.
type schedCache [numKernels][2]atomic.Pointer[Schedule]

func (c *schedCache) get(kern Kernel, inverse bool, build func(kern Kernel, inverse bool) *Schedule) *Schedule {
	kern = kern.Concrete()
	dir := 0
	if inverse {
		dir = 1
	}
	if s := c[kern][dir].Load(); s != nil {
		return s
	}
	c[kern][0].Store(build(kern, false))
	c[kern][1].Store(build(kern, true))
	return c[kern][dir].Load()
}
