package fft_test

import (
	"fmt"
	"testing"

	"codeletfft/internal/fft"
	"codeletfft/internal/host"
)

// blockedTaskSizes returns the task sizes the bitwise pin checks at
// 2^logN points: every one from 2 to N up to 2^16 — two-point stages,
// where every sweep is a single level, among them — and beyond that the
// ones that move the blocked passes' cut: the default 64, stage
// boundaries just below, at and just past the 2^14-point unit (up to
// 2^20), and P = N (no sweep: the pack is the whole transform).
func blockedTaskSizes(logN int) []int {
	var ps []int
	for lp := 1; lp <= logN; lp++ {
		if logN <= 16 || lp == 6 || (logN <= 20 && lp >= 13 && lp <= 15) || lp == logN {
			ps = append(ps, 1<<lp)
		}
	}
	return ps
}

// TestSoAScheduleMatchesLevelSweeps pins the blocked passes to the
// schedule they replaced — one whole-array pass per level sweep, then a
// separate unpack (fft.SoALevelTransform) — bit for bit: at every logN
// from 1 to 22, the task sizes of blockedTaskSizes, both SoA kernels,
// forward and inverse, run serially, pass-parallel on three workers and
// as a batch. Above 2^16 only soa4 runs; under -short or the race
// detector the sizes stop at 2^16.
func TestSoAScheduleMatchesLevelSweeps(t *testing.T) {
	maxLog := 22
	if testing.Short() || raceEnabled {
		maxLog = 16
	}
	eng := host.New(host.Config{Workers: 3, Threshold: 1})
	for logN := 1; logN <= maxLog; logN++ { // a plan needs 2 ≤ P ≤ N
		n := 1 << logN
		w := fft.Twiddles(n)
		x := lcgComplex(n, uint64(logN)+11)
		got := make([]complex128, n)
		batch := [][]complex128{make([]complex128, n), make([]complex128, n)}
		for _, p := range blockedTaskSizes(logN) {
			pl, err := fft.NewPlan(n, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, kern := range []fft.Kernel{fft.KernelSoARadix4, fft.KernelSoARadix2} {
				if logN > 16 && kern != fft.KernelSoARadix4 {
					continue
				}
				for _, inverse := range []bool{false, true} {
					want := append([]complex128(nil), x...)
					fft.SoALevelTransform(pl, want, w, kern, inverse)
					s := pl.Schedule(w, kern, inverse)
					check := func(mode string, run func() error) {
						t.Helper()
						copy(got, x)
						noErr(t, run())
						if !equalBits(got, want) {
							t.Fatalf("N=2^%d P=%d %v inverse=%v %s: differs from one pass per level sweep", logN, p, kern, inverse, mode)
						}
					}
					check("serial", func() error { return s.Run(got) })
					check("3 workers", func() error { return eng.Run(s, got) })
					for _, row := range batch {
						copy(row, x)
					}
					noErr(t, eng.RunBatch(s, batch))
					for r, row := range batch {
						if !equalBits(row, want) {
							t.Fatalf("N=2^%d P=%d %v inverse=%v: batch row %d differs from one pass per level sweep", logN, p, kern, inverse, r)
						}
					}
				}
			}
		}
	}
}

// TestFourStepMatchesLevelSweeps: the four-step's sub-FFTs run the same
// blocked passes, so FourStepPlan.Transform and InverseTransform are bit
// for bit the unfused four-step whose column and row transforms take
// one pass per level sweep.
func TestFourStepMatchesLevelSweeps(t *testing.T) {
	maxLog := 22
	if testing.Short() || raceEnabled {
		maxLog = 16
	}
	for logN := 2; logN <= maxLog; logN++ {
		for _, f := range fourStepFactorizations(1 << logN) {
			fs, err := fft.NewFourStep(f[0], f[1])
			if err != nil {
				t.Fatal(err)
			}
			x := randComplex(fs.N, int64(logN))
			for _, inverse := range []bool{false, true} {
				got := append([]complex128(nil), x...)
				want := append([]complex128(nil), x...)
				if inverse {
					noErr(t, fs.InverseTransform(got))
				} else {
					noErr(t, fs.Transform(got))
				}
				unfusedFourStepWith(t, fs.N1, fs.N2, want, inverse, func(pl *fft.Plan, d, w []complex128) {
					fft.SoALevelTransform(pl, d, w, fft.KernelSoARadix4, false)
				})
				if !equalBits(got, want) {
					t.Fatalf("%d×%d inverse=%v: differs from the four-step over one pass per level sweep", fs.N1, fs.N2, inverse)
				}
			}
		}
	}
}

// TestSoAScheduleShape pins the blocked schedule's pass count: the pack,
// then one blocked pass per group of level sweeps — at the default task
// size 2^20 points take the pack and two (nine passes at one per level
// pair), 2^22 the pack and three; an array no larger than its task size
// is the pack alone.
func TestSoAScheduleShape(t *testing.T) {
	for _, tc := range []struct {
		n, p, passes int
	}{
		{1 << 20, 64, 3}, {1 << 22, 64, 4}, {1 << 14, 64, 2}, {1 << 10, 64, 2},
		{64, 64, 1}, {1 << 16, 1 << 16, 1},
	} {
		pl, err := fft.NewPlan(tc.n, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		w := fft.Twiddles(tc.n)
		for _, inverse := range []bool{false, true} {
			if got := len(pl.Schedule(w, fft.KernelSoARadix4, inverse).Passes); got != tc.passes {
				t.Errorf("N=%d P=%d inverse=%v: %d passes, want %d", tc.n, tc.p, inverse, got, tc.passes)
			}
		}
	}
}

// BenchmarkSoASchedule times one serial soa4 transform through the
// plan's Schedule — the pack, the blocked level passes and the store
// into the caller's array — at the default 64-point task size, forward
// and inverse, from arrays that fit in L1 to 64 MiB ones. Reported
// per point: go test -run '^$' -bench SoASchedule ./internal/fft.
func BenchmarkSoASchedule(b *testing.B) {
	for logN := 7; logN <= 22; logN++ {
		n := 1 << logN
		pl, err := fft.NewPlan(n, min(64, n))
		if err != nil {
			b.Fatal(err)
		}
		w := fft.Twiddles(n)
		data := lcgComplex(n, uint64(logN))
		for _, inverse := range []bool{false, true} {
			dir := "fwd"
			if inverse {
				dir = "inv"
			}
			s := pl.Schedule(w, fft.KernelSoARadix4, inverse)
			b.Run(fmt.Sprintf("%s/2^%d", dir, logN), func(b *testing.B) {
				b.SetBytes(int64(16 * n))
				for i := 0; i < b.N; i++ {
					if err := s.Run(data); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/pt")
			})
		}
	}
}
