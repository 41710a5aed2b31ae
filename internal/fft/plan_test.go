package fft

import (
	"errors"
	"math/rand"
	"testing"
)

func mustPlan(t *testing.T, n, p int) *Plan {
	t.Helper()
	pl, err := NewPlan(n, p)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestNewPlanValidation: a bad length wraps ErrUnsupportedLength and a
// bad task size — not a power of two ≥ 2, or larger than N — wraps
// ErrBadTaskSize.
func TestNewPlanValidation(t *testing.T) {
	cases := []struct {
		n, p int
		want error // nil = accepted
	}{
		{1 << 15, 64, nil},
		{1 << 12, 64, nil},
		{64, 64, nil},
		{2, 2, nil},
		{100, 4, ErrUnsupportedLength}, // N not a power of two
		{64, 3, ErrBadTaskSize},        // P not a power of two
		{64, 1, ErrBadTaskSize},        // P too small
		{64, 128, ErrBadTaskSize},      // P > N
		{0, 2, ErrUnsupportedLength},
	}
	for _, c := range cases {
		_, err := NewPlan(c.n, c.p)
		if c.want == nil && err != nil || c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("NewPlan(%d,%d) err=%v, want %v", c.n, c.p, err, c.want)
		}
	}
}

func TestPlanStageShape(t *testing.T) {
	// N=2^15, P=64: 3 stages; last stage has 15 mod 6 = 3 levels.
	pl := mustPlan(t, 1<<15, 64)
	if pl.NumStages != 3 {
		t.Fatalf("NumStages = %d, want 3", pl.NumStages)
	}
	if pl.TasksPerStage != 512 {
		t.Fatalf("TasksPerStage = %d, want 512", pl.TasksPerStage)
	}
	if pl.Levels(0) != 6 || pl.Levels(1) != 6 || pl.Levels(2) != 3 {
		t.Fatalf("levels = %d,%d,%d, want 6,6,3", pl.Levels(0), pl.Levels(1), pl.Levels(2))
	}
	if pl.GroupsPerTask(2) != 8 || pl.GroupSize(2) != 8 {
		t.Fatalf("last stage groups: %d×%d, want 8×8", pl.GroupsPerTask(2), pl.GroupSize(2))
	}
	// N=2^18, P=64: exactly 3 full stages.
	pl = mustPlan(t, 1<<18, 64)
	if pl.NumStages != 3 || pl.Levels(2) != 6 {
		t.Fatalf("2^18 plan: stages=%d lastLevels=%d, want 3,6", pl.NumStages, pl.Levels(2))
	}
}

func TestTwiddlesPerTask(t *testing.T) {
	pl := mustPlan(t, 1<<15, 64)
	if got := pl.TwiddlesPerTask(0); got != 63 {
		t.Fatalf("regular stage twiddles = %d, want 63 (the paper's count)", got)
	}
	// Irregular last stage: 8 groups × 7 = 56.
	if got := pl.TwiddlesPerTask(2); got != 56 {
		t.Fatalf("last stage twiddles = %d, want 56", got)
	}
}

func TestTaskIndicesMatchPaperFormula(t *testing.T) {
	// Regular stages must reproduce the paper's gather formula
	// D[64^{j+1}·⌊i/64^j⌋ + (i mod 64^j) + k·64^j].
	pl := mustPlan(t, 1<<18, 64)
	idx := make([]int64, 64)
	for _, stage := range []int{0, 1, 2} {
		sj := int64(1) << (6 * stage)
		for _, task := range []int{0, 1, 17, 100, pl.TasksPerStage - 1} {
			pl.TaskIndices(stage, task, idx)
			for k := int64(0); k < 64; k++ {
				want := sj*64*(int64(task)/sj) + int64(task)%sj + k*sj
				if idx[k] != want {
					t.Fatalf("stage %d task %d k=%d: got %d, want %d", stage, task, k, idx[k], want)
				}
			}
		}
	}
}

func TestTaskIndicesPartitionEveryStage(t *testing.T) {
	for _, cfg := range []struct{ n, p int }{
		{1 << 12, 64}, {1 << 15, 64}, {1 << 13, 8}, {1 << 10, 4}, {256, 16}, {1 << 14, 128},
	} {
		pl := mustPlan(t, cfg.n, cfg.p)
		idx := make([]int64, pl.P)
		for stage := 0; stage < pl.NumStages; stage++ {
			seen := make([]bool, pl.N)
			for task := 0; task < pl.TasksPerStage; task++ {
				pl.TaskIndices(stage, task, idx)
				for _, g := range idx {
					if g < 0 || g >= int64(pl.N) {
						t.Fatalf("N=%d P=%d stage %d: index %d out of range", cfg.n, cfg.p, stage, g)
					}
					if seen[g] {
						t.Fatalf("N=%d P=%d stage %d: index %d covered twice", cfg.n, cfg.p, stage, g)
					}
					seen[g] = true
				}
			}
			for g, ok := range seen {
				if !ok {
					t.Fatalf("N=%d P=%d stage %d: index %d never covered", cfg.n, cfg.p, stage, g)
				}
			}
		}
	}
}

func TestTaskOfInverse(t *testing.T) {
	for _, cfg := range []struct{ n, p int }{
		{1 << 12, 64}, {1 << 15, 64}, {1 << 13, 8}, {512, 16},
	} {
		pl := mustPlan(t, cfg.n, cfg.p)
		idx := make([]int64, pl.P)
		rng := rand.New(rand.NewSource(9))
		for stage := 0; stage < pl.NumStages; stage++ {
			for trial := 0; trial < 50; trial++ {
				task := rng.Intn(pl.TasksPerStage)
				pl.TaskIndices(stage, task, idx)
				for _, g := range idx {
					if got := pl.TaskOf(stage, g); got != task {
						t.Fatalf("N=%d P=%d stage %d: TaskOf(%d) = %d, want %d",
							cfg.n, cfg.p, stage, g, got, task)
					}
				}
			}
		}
	}
}

func TestTaskTwiddleIndicesBounds(t *testing.T) {
	for _, cfg := range []struct{ n, p int }{
		{1 << 15, 64}, {1 << 12, 64}, {1 << 13, 8}, {1 << 10, 32},
	} {
		pl := mustPlan(t, cfg.n, cfg.p)
		tw := make([]int64, pl.P)
		for stage := 0; stage < pl.NumStages; stage++ {
			for task := 0; task < pl.TasksPerStage; task += 7 {
				n := pl.TaskTwiddleIndices(stage, task, tw)
				if n != pl.TwiddlesPerTask(stage) {
					t.Fatalf("count %d, want %d", n, pl.TwiddlesPerTask(stage))
				}
				for i := 0; i < n; i++ {
					if tw[i] < 0 || tw[i] >= int64(pl.N/2) {
						t.Fatalf("twiddle index %d out of table [0,%d)", tw[i], pl.N/2)
					}
				}
			}
		}
	}
}

func TestEarlyStageTwiddleStridesAreCoarse(t *testing.T) {
	// The motivating fact: every twiddle index of stages before the last
	// is a multiple of 16 elements (256 B = one full interleave round),
	// pinning those loads to one DRAM bank.
	// Strides fall below 16 elements only at global levels > log2(N)-5,
	// so every stage whose top level is ≤ log2(N)-5 is fully coarse.
	pl := mustPlan(t, 1<<20, 64)
	tw := make([]int64, 64)
	coarseStages := 0
	for s := 0; s < pl.NumStages; s++ {
		if pl.LogP*s+pl.Levels(s)-1 <= pl.LogN-5 {
			coarseStages = s + 1
		}
	}
	if coarseStages < 2 {
		t.Fatalf("expected at least 2 fully coarse stages, got %d", coarseStages)
	}
	for stage := 0; stage < coarseStages; stage++ {
		for _, task := range []int{0, 5, 511, 1000} {
			n := pl.TaskTwiddleIndices(stage, task, tw)
			for i := 0; i < n; i++ {
				if tw[i]%16 != 0 {
					t.Fatalf("stage %d twiddle index %d not a multiple of 16", stage, tw[i])
				}
			}
		}
	}
	// And the last stage does reach fine strides.
	last := pl.NumStages - 1
	n := pl.TaskTwiddleIndices(last, 3, tw)
	fine := false
	for i := 0; i < n; i++ {
		if tw[i]%16 != 0 {
			fine = true
		}
	}
	if !fine {
		t.Fatal("last stage should contain fine-stride twiddle indices")
	}
}

func TestPaperChildExample(t *testing.T) {
	// Paper, section IV-A2: with 64-point codelets, the 80th codelet in
	// stage 3 has the 64 parents {80 + 4096·m} in stage 2, and codelet
	// 4176 in stage 3 shares exactly those parents.
	pl := mustPlan(t, 1<<24, 64) // large enough that stage 3 is regular
	idx := make([]int64, 64)

	parentSet := func(stage, task int) map[int]bool {
		pl.TaskIndices(stage, task, idx)
		set := make(map[int]bool)
		for _, g := range idx {
			set[pl.TaskOf(stage-1, g)] = true
		}
		return set
	}

	p80 := parentSet(3, 80)
	if len(p80) != 64 {
		t.Fatalf("codelet 80 has %d parents, want 64", len(p80))
	}
	for m := 0; m < 64; m++ {
		if !p80[80+4096*m] {
			t.Fatalf("parent %d missing from codelet 80's parents", 80+4096*m)
		}
	}
	p4176 := parentSet(3, 4176)
	for p := range p80 {
		if !p4176[p] {
			t.Fatalf("codelet 4176 should share parent %d with codelet 80", p)
		}
	}
	if len(p4176) != 64 {
		t.Fatalf("codelet 4176 has %d parents, want 64", len(p4176))
	}
}

func TestTaskFlops(t *testing.T) {
	pl := mustPlan(t, 1<<15, 64)
	if got := pl.TaskFlops(0); got != 6*32*10 {
		t.Fatalf("regular TaskFlops = %d, want 1920", got)
	}
	if got := pl.TaskFlops(2); got != 3*32*10 {
		t.Fatalf("last TaskFlops = %d, want 960", got)
	}
	// Sum over all tasks equals the 5·N·log2(N) convention.
	var sum int64
	for s := 0; s < pl.NumStages; s++ {
		sum += pl.TaskFlops(s) * int64(pl.TasksPerStage)
	}
	if sum != pl.TotalFlops() {
		t.Fatalf("flop sum %d != TotalFlops %d", sum, pl.TotalFlops())
	}
}

func TestPlanPanicsOnBadArgs(t *testing.T) {
	pl := mustPlan(t, 1<<12, 64)
	for _, fn := range []func(){
		func() { pl.Levels(-1) },
		func() { pl.Levels(pl.NumStages) },
		func() { pl.TaskIndices(0, -1, make([]int64, 64)) },
		func() { pl.TaskIndices(0, pl.TasksPerStage, make([]int64, 64)) },
		func() { pl.TaskIndices(0, 0, make([]int64, 8)) },
		func() { pl.TaskOf(0, -1) },
		func() { pl.TaskOf(0, int64(pl.N)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
