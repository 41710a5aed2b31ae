// Conformance tests for the executor: every schedule family, run every
// way the engine can run it, must produce the bits of the serial run and
// report exactly the passes its Observer contract promises; and a
// wrong-length array must be rejected before anything is written.
package host_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"codeletfft/internal/fft"
	"codeletfft/internal/host"
)

// noErr fails t on a non-nil error.
func noErr(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// confCase is one schedule family instance. input draws a row the
// schedule accepts; nil means complex noise.
type confCase struct {
	name  string
	sched func(inverse bool) *fft.Schedule
	input func(inverse bool, seed uint64) []complex128
}

func must[T any](t *testing.T) func(T, error) T {
	return func(v T, err error) T {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

// rowCol returns the rows×cols row-column schedules over the staged
// plans of each axis under kern, their P-point tasks clamped to the
// axis: the inverse is RowCol of the axes' inverses.
func rowCol(t *testing.T, rows, cols, p int, kern fft.Kernel) func(inverse bool) *fft.Schedule {
	rp := must[*fft.Plan](t)(fft.NewPlan(cols, min(p, cols)))
	cp := must[*fft.Plan](t)(fft.NewPlan(rows, min(p, rows)))
	wr, wc := fft.Twiddles(cols), fft.Twiddles(rows)
	fwd := fft.RowCol(rp.Schedule(wr, kern, false), cp.Schedule(wc, kern, false))
	inv := fft.RowCol(rp.Schedule(wr, kern, true), cp.Schedule(wc, kern, true))
	return func(inverse bool) *fft.Schedule {
		if inverse {
			return inv
		}
		return fwd
	}
}

func conformanceCases(t *testing.T) []confCase {
	var cases []confCase
	pow2 := func(n, p int, k fft.Kernel) func(bool) *fft.Schedule {
		pl, w := must[*fft.Plan](t)(fft.NewPlan(n, p)), fft.Twiddles(n)
		return func(inverse bool) *fft.Schedule { return pl.Schedule(w, k, inverse) }
	}
	maxLog := 16
	if raceEnabled || testing.Short() {
		maxLog = 12
	}
	for _, k := range fft.ConcreteKernels() {
		for lg := 1; lg <= maxLog; lg++ {
			n := 1 << lg
			cases = append(cases, confCase{name: fmt.Sprintf("%v/2^%d", k, lg), sched: pow2(n, min(64, n), k)})
			if lg == 7 || lg == 11 { // irregular last stage
				cases = append(cases, confCase{name: fmt.Sprintf("%v/2^%d/P8", k, lg), sched: pow2(n, 8, k)})
			}
		}
		cases = append(cases, confCase{name: fmt.Sprintf("%v/2-D 64x128", k), sched: rowCol(t, 64, 128, 64, k)})
	}
	for _, n := range []int{1, 12, 1000, 3072, 3 << 12} {
		mp := must[*fft.MixedPlan](t)(fft.NewMixedPlan(n))
		cases = append(cases, confCase{name: fmt.Sprintf("mixed/%d", n), sched: mp.Schedule})
	}
	// Bluestein: the mixed-radix stages on the two halves of the work
	// buffer, at a 2048- and a 2^17-point convolution.
	for _, n := range []int{1009, 65521} {
		bp := must[*fft.BluesteinPlan](t)(fft.NewBluesteinPlan(n))
		cases = append(cases, confCase{name: fmt.Sprintf("bluestein/%d", n),
			sched: func(inverse bool) *fft.Schedule { return bp.Schedule(inverse) }})
	}
	// 2-D with a Bluestein column axis and mixed-radix rows: every column
	// unit runs the convolution on its own work buffer.
	mp60, bp61 := must[*fft.MixedPlan](t)(fft.NewMixedPlan(60)), must[*fft.BluesteinPlan](t)(fft.NewBluesteinPlan(61))
	cases = append(cases, confCase{name: "2-D 61x60 bluestein×mixed", sched: func(inverse bool) *fft.Schedule {
		return fft.RowCol(mp60.Schedule(inverse), bp61.Schedule(inverse))
	}})
	// A circular convolution (fft.Filter): a mixed plan's two directions
	// around the blocked filter pass, 1000 points in two filter units.
	mp1000 := must[*fft.MixedPlan](t)(fft.NewMixedPlan(1000))
	filter := fft.Filter(mp1000.Schedule(false), mp1000.Schedule(true), kernInput(1000, 99))
	cases = append(cases, confCase{name: "filter/mixed 1000", sched: func(bool) *fft.Schedule { return filter }})
	// Real input: the split pass around a half schedule. The pass runs
	// on the caller's goroutine either side of the executor, so the
	// half schedule on packed input is the whole executor surface.
	mp1500 := must[*fft.MixedPlan](t)(fft.NewMixedPlan(1500))
	for _, r := range []struct {
		n    int
		half func(bool) *fft.Schedule
	}{{4096, pow2(2048, 64, fft.KernelSoARadix4)}, {3000, mp1500.Schedule}} {
		split := must[*fft.RealSplit](t)(fft.NewRealSplit(r.n))
		cases = append(cases, confCase{name: fmt.Sprintf("real/%d", r.n), sched: r.half,
			input: func(inverse bool, seed uint64) []complex128 {
				z := kernInput(r.n, seed)
				x := make([]float64, r.n)
				for i := range x {
					x[i] = real(z[i])
				}
				spec := make([]complex128, split.SpectrumLen())
				for j := range r.n / 2 {
					spec[j] = complex(x[2*j], x[2*j+1])
				}
				if !inverse {
					return spec[:r.n/2]
				}
				work := make([]complex128, r.n/2)
				split.PreInverse(work, spec)
				return work
			}})
	}
	return cases
}

// seqObserver records the pass labels in order and every batch report.
type seqObserver struct {
	mu      sync.Mutex
	passes  []string
	batches [][2]int
}

func (o *seqObserver) ObservePass(pass string, _ time.Duration) {
	o.mu.Lock()
	o.passes = append(o.passes, pass)
	o.mu.Unlock()
}

func (o *seqObserver) ObserveBatch(batch, n int, _ time.Duration) {
	o.mu.Lock()
	o.batches = append(o.batches, [2]int{batch, n})
	o.mu.Unlock()
}

func (o *seqObserver) take() (passes []string, batches [][2]int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	passes, batches = o.passes, o.batches
	o.passes, o.batches = nil, nil
	return passes, batches
}

// parentLabels is the label set the engine reported before the executor
// existed, with the composite plans' passes since; a schedule may use
// no other.
var parentLabels = []string{
	host.PassBitRev, host.PassStage, host.PassConj, host.PassScale, host.PassRows, host.PassCols,
	host.PassFilter, host.PassSegments,
	host.PassStageRadix4, host.PassStageSplitRadix, host.PassStageSoA2, host.PassStageSoA4,
	host.PassStageMixed, host.PassSoAPack, host.PassSoAUnpack,
}

// TestExecutorConformance runs every schedule forward and inverse on a
// serial engine, a three-worker engine with the threshold forced down,
// and as batches of 1, 2 and 7 rows on both, and demands the bits of
// fft.Schedule.Run plus the Observer contract: nothing from a serial
// run, exactly one ObservePass per pass in schedule order from a
// pass-parallel one, one pass under the stage label from a batch dealt
// out whole, and one ObserveBatch per batch either way.
func TestExecutorConformance(t *testing.T) {
	serialObs, parObs := &seqObserver{}, &seqObserver{}
	serial := host.New(host.Config{Workers: 1, Observer: serialObs})
	par := host.New(host.Config{Workers: 3, Threshold: 1, Observer: parObs})
	for _, tc := range conformanceCases(t) {
		for _, inverse := range []bool{false, true} {
			s := tc.sched(inverse)
			name := fmt.Sprintf("%s inverse=%v", tc.name, inverse)
			input := func(seed uint64) []complex128 {
				if tc.input != nil {
					return tc.input(inverse, seed)
				}
				return kernInput(s.N, seed)
			}
			labels := make([]string, len(s.Passes))
			for i, p := range s.Passes {
				labels[i] = p.Label
				if !slices.Contains(parentLabels, p.Label) {
					t.Fatalf("%s: pass %d has label %q, not one the engine reported before", name, i, p.Label)
				}
			}
			if !slices.Contains(parentLabels, s.Stage) {
				t.Fatalf("%s: stage label %q is not one the engine reported before", name, s.Stage)
			}

			want := input(1)
			noErr(t, s.Run(want))
			got := input(1)
			noErr(t, serial.Run(s, got))
			if !sameBits(got, want) {
				t.Fatalf("%s: one-worker engine != serial run", name)
			}
			if p, b := serialObs.take(); len(p)+len(b) != 0 {
				t.Fatalf("%s: serial run reported passes %v batches %v, want nothing", name, p, b)
			}
			got = input(1)
			noErr(t, par.Run(s, got))
			if !sameBits(got, want) {
				t.Fatalf("%s: three-worker engine != serial run", name)
			}
			if p, b := parObs.take(); !slices.Equal(p, labels) || len(b) != 0 {
				t.Fatalf("%s: pass-parallel run reported passes %v batches %v, want %v and no batch", name, p, b, labels)
			}

			for _, rows := range []int{1, 2, 7} {
				wantRows := make([][]complex128, rows)
				for i := range wantRows {
					wantRows[i] = input(uint64(10*rows + i))
					noErr(t, s.Run(wantRows[i]))
				}
				for _, e := range []struct {
					eng    *host.Engine
					obs    *seqObserver
					passes []string
				}{
					{serial, serialObs, nil},
					{par, parObs, batchLabels(labels, s.Stage, rows, par.Workers())},
				} {
					batch := make([][]complex128, rows)
					for i := range batch {
						batch[i] = input(uint64(10*rows + i))
					}
					noErr(t, e.eng.RunBatch(s, batch))
					for i := range batch {
						if !sameBits(batch[i], wantRows[i]) {
							t.Fatalf("%s: B=%d workers=%d row %d != serial run", name, rows, e.eng.Workers(), i)
						}
					}
					p, b := e.obs.take()
					if !slices.Equal(p, e.passes) || !slices.Equal(b, [][2]int{{rows, s.N}}) {
						t.Fatalf("%s: B=%d workers=%d reported passes %v batches %v, want %v and one (%d, %d) batch",
							name, rows, e.eng.Workers(), p, b, e.passes, rows, s.N)
					}
				}
			}
		}
	}
}

// batchLabels is what a parallel engine reports for a batch: one pass
// under the stage label when the rows are dealt out whole, every row's
// passes in turn when there are fewer rows than workers.
func batchLabels(labels []string, stage string, rows, workers int) []string {
	if rows >= workers {
		return []string{stage}
	}
	var out []string
	for i := 0; i < rows; i++ {
		out = append(out, labels...)
	}
	return out
}

// TestExecutionRule pins which way the executor runs a call at the
// default threshold on an engine with more workers than most batches
// have rows — the shape a coalesced serve micro-batch has on a many-core
// host. The cut looks at the schedule's span, so a Bluestein transform
// shards by its convolution length, and a few rows too small to shard
// are still dealt out whole rather than run one after another.
func TestExecutionRule(t *testing.T) {
	obs := &seqObserver{}
	eng := host.New(host.Config{Workers: 8, Observer: obs})
	pow2 := func(n int) *fft.Schedule {
		return must[*fft.Plan](t)(fft.NewPlan(n, 64)).Schedule(fft.Twiddles(n), fft.KernelSoARadix4, false)
	}
	blue := func(n int) *fft.Schedule {
		return must[*fft.BluesteinPlan](t)(fft.NewBluesteinPlan(n)).Schedule(false)
	}
	mixed := must[*fft.MixedPlan](t)(fft.NewMixedPlan(1000)).Schedule(false)
	const serial, whole, perRow = "serial", "whole transforms", "pass-parallel rows"
	for _, tc := range []struct {
		name string
		s    *fft.Schedule
		rows int // 0: Run on one array
		want string
	}{
		{"2^12", pow2(1 << 12), 0, serial},
		{"2^13", pow2(1 << 13), 0, perRow},
		{"bluestein 1009 (M=2048)", blue(1009), 0, serial},
		{"bluestein 5003 (M=10240)", blue(5003), 0, perRow},
		{"1 x 2^12", pow2(1 << 12), 1, serial},
		{"4 x 2^10", pow2(1 << 10), 4, serial},
		{"4 x 2^12", pow2(1 << 12), 4, whole},
		{"8 x 2^10", pow2(1 << 10), 8, whole},
		{"9 x mixed 1000", mixed, 9, whole},
		{"8 x mixed 1000", mixed, 8, serial},
		{"4 x bluestein 1009", blue(1009), 4, whole},
		{"1 x bluestein 5003", blue(5003), 1, perRow},
		{"2 x 2^13", pow2(1 << 13), 2, perRow},
		{"8 x 2^13", pow2(1 << 13), 8, whole},
	} {
		var labels []string
		for _, p := range tc.s.Passes {
			labels = append(labels, p.Label)
		}
		n := max(tc.rows, 1)
		want, got := make([][]complex128, n), make([][]complex128, n)
		for i := range want {
			want[i], got[i] = kernInput(tc.s.N, uint64(i)), kernInput(tc.s.N, uint64(i))
			noErr(t, tc.s.Run(want[i]))
		}
		var wantPasses []string
		switch tc.want {
		case whole:
			wantPasses = []string{tc.s.Stage}
		case perRow:
			wantPasses = batchLabels(labels, "", n, n+1)
		}
		var wantBatches [][2]int
		if tc.rows == 0 {
			noErr(t, eng.Run(tc.s, got[0]))
		} else {
			noErr(t, eng.RunBatch(tc.s, got))
			wantBatches = [][2]int{{tc.rows, tc.s.N}}
		}
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s: row %d != serial run", tc.name, i)
			}
		}
		if p, b := obs.take(); !slices.Equal(p, wantPasses) || !slices.Equal(b, wantBatches) {
			t.Fatalf("%s: reported passes %v batches %v, want %s: %v and batches %v", tc.name, p, b, tc.want, wantPasses, wantBatches)
		}
	}
}

// TestLengthMismatchLeavesDataUntouched: every family, forward, inverse
// and batched, on the serial run and both engine shapes, returns a
// wrong-length array as an error wrapping ErrLengthMismatch — naming
// the row, for a batch — before writing a single element: the check
// comes before the inverse's leading conjugation sweep.
func TestLengthMismatchLeavesDataUntouched(t *testing.T) {
	pl, w := must[*fft.Plan](t)(fft.NewPlan(64, 8)), fft.Twiddles(64)
	mp := must[*fft.MixedPlan](t)(fft.NewMixedPlan(60))
	bp := must[*fft.BluesteinPlan](t)(fft.NewBluesteinPlan(61))
	p2 := rowCol(t, 8, 8, 8, fft.KernelRadix2)
	families := map[string]func(bool) *fft.Schedule{
		"radix4":    func(inv bool) *fft.Schedule { return pl.Schedule(w, fft.KernelRadix4, inv) },
		"soa4":      func(inv bool) *fft.Schedule { return pl.Schedule(w, fft.KernelSoARadix4, inv) },
		"mixed":     mp.Schedule,
		"bluestein": func(inv bool) *fft.Schedule { return bp.Schedule(inv) },
		"2-D":       p2,
	}
	engines := map[string]*host.Engine{
		"serial":   host.New(host.Config{Workers: 1}),
		"parallel": host.New(host.Config{Workers: 3, Threshold: 1}),
	}
	// rejected runs f on a fresh short array and two good rows, and
	// checks the error and that no element moved.
	rejected := func(name string, n int, wantRow string, f func(bad []complex128, batch [][]complex128) error) {
		t.Helper()
		bad := kernInput(n-1, 3)
		batch := [][]complex128{kernInput(n, 4), kernInput(n, 5), bad}
		before := [][]complex128{slices.Clone(batch[0]), slices.Clone(batch[1]), slices.Clone(bad)}
		if err := f(bad, batch); !errors.Is(err, fft.ErrLengthMismatch) || !strings.Contains(err.Error(), wantRow) {
			t.Fatalf("%s: err = %v, want an error wrapping ErrLengthMismatch mentioning %q", name, err, wantRow)
		}
		for i := range batch {
			if !sameBits(batch[i], before[i]) {
				t.Fatalf("%s: array %d was modified before the length check", name, i)
			}
		}
	}
	for fam, sched := range families {
		for _, inverse := range []bool{false, true} {
			s := sched(inverse)
			name := fmt.Sprintf("%s inverse=%v", fam, inverse)
			rejected(name+" Schedule.Run", s.N, "data", func(bad []complex128, _ [][]complex128) error { return s.Run(bad) })
			for ename, eng := range engines {
				rejected(name+" "+ename+" Run", s.N, "data", func(bad []complex128, _ [][]complex128) error { return eng.Run(s, bad) })
				rejected(name+" "+ename+" RunBatch", s.N, "batch element 2", func(_ []complex128, batch [][]complex128) error { return eng.RunBatch(s, batch) })
			}
		}
	}
	// The staged radix-2 reference had the same conj-then-check order;
	// it has no error result and panics with the error instead.
	rejected("Plan.InverseTransform", 64, "data", func(bad []complex128, _ [][]complex128) (err error) {
		defer func() { err, _ = recover().(error) }()
		pl.InverseTransform(bad, w)
		return nil
	})
}
