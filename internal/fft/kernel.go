package fft

// Butterflies applies v radix-2 DIT levels in place to one group buffer
// (length 2^v). tw holds the group's 2^v−1 twiddle values in the
// TaskTwiddleIndices layout (level-major). It returns the flop count.
func Butterflies(buf, tw []complex128, v int) int64 {
	n := len(buf)
	if n != 1<<v {
		panic("fft: group buffer length must be 2^v")
	}
	if len(tw) < n-1 {
		panic("fft: twiddle buffer too small for group")
	}
	off := 0
	for ll := 0; ll < v; ll++ {
		half := 1 << ll
		w := tw[off : off+half]
		off += half
		for k := 0; k < n; k += 2 * half {
			for j := 0; j < half; j++ {
				t := w[j] * buf[k+j+half]
				u := buf[k+j]
				buf[k+j] = u + t
				buf[k+j+half] = u - t
			}
		}
	}
	return int64(v) * int64(n/2) * 10
}

// TaskButterflies applies a task's levels to its gathered buffer: buf has
// P elements (GroupsPerTask groups of GroupSize), tw has TwiddlesPerTask
// values. It returns the flop count.
func TaskButterflies(buf, tw []complex128, v int) int64 {
	gsz := 1 << v
	if len(buf)%gsz != 0 {
		panic("fft: task buffer not a whole number of groups")
	}
	ng := len(buf) / gsz
	var flops int64
	for q := 0; q < ng; q++ {
		flops += Butterflies(buf[q*gsz:(q+1)*gsz], tw[q*(gsz-1):], v)
	}
	return flops
}

// Scratch is a reusable per-worker buffer set for executing tasks. A
// Scratch must not be shared between concurrently executing goroutines;
// give every worker its own (Plan itself is immutable after NewPlan and
// safe for any number of concurrent users).
type Scratch struct {
	Idx   []int64
	TwIdx []int64
	Buf   []complex128
	Tw    []complex128
}

// NewScratch sizes scratch buffers for plan pl.
func NewScratch(pl *Plan) *Scratch {
	return &Scratch{
		Idx:   make([]int64, pl.P),
		TwIdx: make([]int64, pl.P),
		Buf:   make([]complex128, pl.P),
		Tw:    make([]complex128, pl.P),
	}
}

// RunTask executes one task numerically against data and the twiddle
// table w: gather, butterflies, scatter in place. twiddleAt maps a twiddle
// index to its storage position (identity normally; bit-reversal in the
// hash variants). It returns the flop count.
//
// RunTask is safe for concurrent use on the same data array as long as
// every goroutine has its own Scratch and no two concurrent calls name
// tasks of different stages: tasks of one stage touch disjoint element
// sets, so a per-stage barrier is the only synchronization required.
// Package internal/host builds its parallel engine on exactly this
// contract.
func (pl *Plan) RunTask(stage, task int, data, w []complex128, twiddleAt func(int64) int64, sc *Scratch) int64 {
	pl.TaskIndices(stage, task, sc.Idx)
	nt := pl.TaskTwiddleIndices(stage, task, sc.TwIdx)
	for i, g := range sc.Idx {
		sc.Buf[i] = data[g]
	}
	for i := 0; i < nt; i++ {
		idx := sc.TwIdx[i]
		if twiddleAt != nil {
			idx = twiddleAt(idx)
		}
		sc.Tw[i] = w[idx]
	}
	flops := TaskButterflies(sc.Buf[:pl.P], sc.Tw[:nt], pl.Levels(stage))
	for i, g := range sc.Idx {
		data[g] = sc.Buf[i]
	}
	return flops
}

// Transform runs the complete staged FFT sequentially on the host: the
// bit-reversal permutation followed by every stage's tasks in order. It
// validates the plan decomposition itself, independent of any scheduling
// or machine model. w must be Twiddles(pl.N); a data or twiddle slice of
// the wrong length panics with an error wrapping ErrLengthMismatch.
// Transform allocates a fresh Scratch per call and is therefore safe to
// call concurrently on distinct data arrays.
func (pl *Plan) Transform(data, w []complex128) {
	must(pl.checkLen(data, w))
	sc := NewScratch(pl)
	BitReversePermute(data)
	for stage := 0; stage < pl.NumStages; stage++ {
		for task := 0; task < pl.TasksPerStage; task++ {
			pl.RunTask(stage, task, data, w, nil, sc)
		}
	}
}

func (pl *Plan) checkLen(data, w []complex128) error {
	if len(data) != pl.N {
		return LengthError("data", len(data), pl.N)
	}
	if len(w) != pl.N/2 {
		return LengthError("twiddle table", len(w), pl.N/2)
	}
	return nil
}

// InverseTransform applies the inverse FFT using the same plan via the
// conjugation identity. It checks the lengths first, so a wrong-length
// array panics untouched.
func (pl *Plan) InverseTransform(data, w []complex128) {
	must(pl.checkLen(data, w))
	conjugate(data)
	pl.Transform(data, w)
	conjugateScale(data, 1/float64(pl.N))
}
