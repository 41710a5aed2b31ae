package fft

import (
	"fmt"
	"sync"
)

// Plan describes the staged P-point-task decomposition of an N-point
// radix-2 DIT FFT (paper section IV-A). After a bit-reversal permutation
// the log2(N) butterfly levels are grouped into stages of log2(P) levels;
// every stage consists of N/P independent tasks, each of which loads P
// data elements and up to P-1 twiddle factors, applies its levels, and
// stores the P elements back in place.
//
// If log2(N) is not a multiple of log2(P) the final stage applies only the
// remaining v = log2(N) mod log2(P) levels. Its tasks then process P/2^v
// independent 2^v-element groups each, so there are still N/P tasks — the
// generalization the paper sketches with FFT_last_stage_kernel.
type Plan struct {
	N    int // transform length (power of two)
	LogN int
	P    int // elements per task (power of two, 2 ≤ P ≤ N)
	LogP int

	NumStages     int
	TasksPerStage int

	// Lazily-built split-plane twiddle tables for the SoA kernel family
	// (see soa.go). Guarded by soaOnce so Plan stays safe for concurrent
	// use after NewPlan.
	soaOnce sync.Once
	soaTw   *SoATwiddles

	sched   schedCache // Schedule's memo
	scratch sync.Pool  // *Scratch sized for this plan, one per running scalar stage chunk
}

// NewPlan validates n and p and returns the stage decomposition. The
// returned errors wrap ErrUnsupportedLength or ErrBadTaskSize.
func NewPlan(n, p int) (*Plan, error) {
	logN, logP := Log2(n), Log2(p)
	if logN < 0 {
		return nil, fmt.Errorf("%w: N=%d must be a power of two", ErrUnsupportedLength, n)
	}
	if logP < 1 {
		return nil, fmt.Errorf("%w: P=%d must be a power of two ≥ 2", ErrBadTaskSize, p)
	}
	if p > n {
		return nil, fmt.Errorf("%w: P=%d exceeds N=%d", ErrBadTaskSize, p, n)
	}
	stages := (logN + logP - 1) / logP
	return &Plan{
		N: n, LogN: logN, P: p, LogP: logP,
		NumStages:     stages,
		TasksPerStage: n / p,
	}, nil
}

// Levels returns the number of butterfly levels stage applies: log2(P)
// for all but possibly the last stage.
func (pl *Plan) Levels(stage int) int {
	pl.checkStage(stage)
	if stage == pl.NumStages-1 {
		if rem := pl.LogN % pl.LogP; rem != 0 {
			return rem
		}
	}
	return pl.LogP
}

// GroupSize returns 2^Levels(stage): the span of one independent butterfly
// group inside a task of this stage.
func (pl *Plan) GroupSize(stage int) int { return 1 << pl.Levels(stage) }

// GroupsPerTask returns how many independent groups one task of this
// stage processes (1 except in an irregular final stage).
func (pl *Plan) GroupsPerTask(stage int) int { return pl.P / pl.GroupSize(stage) }

// Stride returns the element stride between consecutive points of a group
// at this stage: 2^(log2(P)·stage).
func (pl *Plan) Stride(stage int) int64 {
	pl.checkStage(stage)
	return int64(1) << (pl.LogP * stage)
}

// TwiddlesPerTask returns the number of distinct twiddle factors a task of
// this stage loads: GroupsPerTask × (GroupSize−1), which is P−1 for
// regular stages — the paper's "63 twiddle factors" for P=64.
func (pl *Plan) TwiddlesPerTask(stage int) int {
	return pl.GroupsPerTask(stage) * (pl.GroupSize(stage) - 1)
}

// TaskFlops returns the floating-point operations one task of this stage
// performs: 10 flops per butterfly (complex multiply + add + subtract),
// P/2 butterflies per level.
func (pl *Plan) TaskFlops(stage int) int64 {
	return int64(pl.Levels(stage)) * int64(pl.P/2) * 10
}

// TotalFlops returns 5·N·log2(N), the paper's flop-count convention for
// the GFLOPS metric (equation 1).
func (pl *Plan) TotalFlops() int64 {
	return 5 * int64(pl.N) * int64(pl.LogN)
}

func (pl *Plan) checkStage(stage int) {
	if stage < 0 || stage >= pl.NumStages {
		panic(fmt.Sprintf("fft: stage %d out of range [0,%d)", stage, pl.NumStages))
	}
}

func (pl *Plan) checkTask(stage, task int) {
	pl.checkStage(stage)
	if task < 0 || task >= pl.TasksPerStage {
		panic(fmt.Sprintf("fft: task %d out of range [0,%d)", task, pl.TasksPerStage))
	}
}

// TaskIndices fills out (length P) with the global element indices a task
// touches, ordered group-major: group q occupies out[q·gsz:(q+1)·gsz] and
// holds elements base(q) + k·Stride for k in [0, gsz).
//
// For regular stages this reduces to the paper's formula
// D[P^{s+1}·⌊i/P^s⌋ + (i mod P^s) + k·P^s].
func (pl *Plan) TaskIndices(stage, task int, out []int64) {
	pl.checkTask(stage, task)
	if len(out) != pl.P {
		panic("fft: TaskIndices buffer must have P elements")
	}
	s := pl.Stride(stage)
	gsz := int64(pl.GroupSize(stage))
	gpt := pl.GroupsPerTask(stage)
	for q := 0; q < gpt; q++ {
		g := int64(task)*int64(gpt) + int64(q)
		blk, off := g/s, g%s
		base := blk*s*gsz + off
		for k := int64(0); k < gsz; k++ {
			out[int64(q)*gsz+k] = base + k*s
		}
	}
}

// TaskOf returns the task of the given stage that covers global element
// index g. It is the exact inverse of TaskIndices and the basis of the
// dependence-graph construction.
func (pl *Plan) TaskOf(stage int, g int64) int {
	pl.checkStage(stage)
	if g < 0 || g >= int64(pl.N) {
		panic(fmt.Sprintf("fft: element index %d out of range", g))
	}
	s := pl.Stride(stage)
	gsz := int64(pl.GroupSize(stage))
	gpt := int64(pl.GroupsPerTask(stage))
	off := g % s
	rest := g / s
	blk := rest / gsz
	group := blk*s + off
	return int(group / gpt)
}

// TaskTwiddleIndices fills out with the twiddle-table indices the task
// loads, laid out to match TaskButterflies: for each group, level 0's one
// index, then level 1's two, up to level v−1's 2^(v−1). It returns the
// count written (TwiddlesPerTask).
//
// The index of the j-th butterfly of global level L is
// (r + j·Stride)·2^(LogN−L−1) with r the group's offset — the paper's
// ω_{lm} = W[(m mod 2^l)·2^(log2 N − l − 1)].
func (pl *Plan) TaskTwiddleIndices(stage, task int, out []int64) int {
	pl.checkTask(stage, task)
	v := pl.Levels(stage)
	s := pl.Stride(stage)
	gpt := pl.GroupsPerTask(stage)
	need := pl.TwiddlesPerTask(stage)
	if len(out) < need {
		panic("fft: twiddle buffer too small")
	}
	pos := 0
	for q := 0; q < gpt; q++ {
		g := int64(task)*int64(gpt) + int64(q)
		r := g % s
		for ll := 0; ll < v; ll++ {
			gl := pl.LogP*stage + ll // global level
			shift := uint(pl.LogN - gl - 1)
			for j := int64(0); j < int64(1)<<ll; j++ {
				out[pos] = (r + j*s) << shift
				pos++
			}
		}
	}
	return pos
}
