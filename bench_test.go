// Benchmarks regenerating each table and figure of the paper, plus
// ablations over the design choices called out in DESIGN.md. The figure
// benchmarks run the experiment suite in quick mode and report the
// headline simulated metric alongside wall-clock time; `go run
// ./cmd/figures` produces the full-size sweeps.
package codeletfft_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"codeletfft"
	"codeletfft/cluster"
	"codeletfft/internal/exp"
	"codeletfft/internal/fft"
)

func quickCfg() exp.Config {
	cfg := exp.NewConfig()
	cfg.Quick = true
	return cfg
}

// benchFigure runs one experiment per iteration and reports its headline
// series value as a custom metric.
func benchFigure(b *testing.B, run func(exp.Config) (*exp.Result, error), metric string, pick func(*exp.Result) float64) {
	b.Helper()
	cfg := quickCfg()
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Passed() {
			for _, c := range res.Checks {
				if !c.Pass {
					b.Fatalf("%s: shape check %q failed: %s", res.ID, c.Name, c.Detail)
				}
			}
		}
		last = pick(res)
	}
	b.ReportMetric(last, metric)
}

func BenchmarkFig1CoarseBankTrace(b *testing.B) {
	benchFigure(b, exp.Fig1CoarseTrace, "early_skew", func(r *exp.Result) float64 {
		// Peak bank-0 rate relative to the other banks' mean.
		var maxB0, maxOther float64
		for w := range r.Series[0].Y {
			if r.Series[0].Y[w] > maxB0 {
				maxB0 = r.Series[0].Y[w]
			}
			for bk := 1; bk < 4; bk++ {
				if r.Series[bk].Y[w] > maxOther {
					maxOther = r.Series[bk].Y[w]
				}
			}
		}
		return maxB0 / maxOther
	})
}

func BenchmarkFig2GuidedBankTrace(b *testing.B) {
	benchFigure(b, exp.Fig2GuidedTrace, "windows", func(r *exp.Result) float64 {
		return float64(len(r.Series[0].Y))
	})
}

func BenchmarkFig6HashBankTrace(b *testing.B) {
	benchFigure(b, exp.Fig6HashTrace, "windows", func(r *exp.Result) float64 {
		return float64(len(r.Series[0].Y))
	})
}

func BenchmarkFig7CodeletSize(b *testing.B) {
	benchFigure(b, exp.Fig7CodeletSize, "best_gflops_sim", func(r *exp.Result) float64 {
		best := 0.0
		for _, v := range r.Series[0].Y {
			if v > best {
				best = v
			}
		}
		return best
	})
}

func BenchmarkFig8Sizes(b *testing.B) {
	benchFigure(b, exp.Fig8InputSizes, "guided_gflops_sim", func(r *exp.Result) float64 {
		for _, s := range r.Series {
			if s.Name == "fine guided" {
				return s.Y[len(s.Y)-1]
			}
		}
		return 0
	})
}

func BenchmarkFig9Threads(b *testing.B) {
	benchFigure(b, exp.Fig9ThreadScaling, "guided_gflops_sim", func(r *exp.Result) float64 {
		for _, s := range r.Series {
			if s.Name == "fine guided" {
				return s.Y[len(s.Y)-1]
			}
		}
		return 0
	})
}

func BenchmarkTablePeak(b *testing.B) {
	benchFigure(b, exp.TablePeak, "peak64_gflops", func(r *exp.Result) float64 {
		return codeletfft.TheoreticalPeakGFLOPS(codeletfft.DefaultMachine(), 64)
	})
}

// benchVariant simulates one variant at N=2^14 and reports the simulated
// GFLOPS.
func benchVariant(b *testing.B, v codeletfft.Variant, mutate func(*codeletfft.Options)) {
	b.Helper()
	var gf float64
	for i := 0; i < b.N; i++ {
		opts := codeletfft.NewOptions(1<<14, v)
		opts.SkipNumerics = true
		if mutate != nil {
			mutate(&opts)
		}
		res, err := codeletfft.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		gf = res.GFLOPS
	}
	b.ReportMetric(gf, "gflops_sim")
}

func BenchmarkVariantCoarse(b *testing.B)     { benchVariant(b, codeletfft.Coarse, nil) }
func BenchmarkVariantCoarseHash(b *testing.B) { benchVariant(b, codeletfft.CoarseHash, nil) }
func BenchmarkVariantFine(b *testing.B)       { benchVariant(b, codeletfft.Fine, nil) }
func BenchmarkVariantFineHash(b *testing.B)   { benchVariant(b, codeletfft.FineHash, nil) }
func BenchmarkVariantGuided(b *testing.B)     { benchVariant(b, codeletfft.FineGuided, nil) }

// Ablations (DESIGN.md §8).

func BenchmarkAblationSharedCounters(b *testing.B) {
	benchVariant(b, codeletfft.Fine, func(o *codeletfft.Options) { o.SharedCounters = true })
}

func BenchmarkAblationPerChildCounters(b *testing.B) {
	benchVariant(b, codeletfft.Fine, func(o *codeletfft.Options) { o.SharedCounters = false })
}

func BenchmarkAblationFIFOPool(b *testing.B) {
	benchVariant(b, codeletfft.Fine, func(o *codeletfft.Options) { o.Discipline = codeletfft.FIFO })
}

func BenchmarkAblationLIFOPool(b *testing.B) {
	benchVariant(b, codeletfft.Fine, func(o *codeletfft.Options) { o.Discipline = codeletfft.LIFO })
}

func BenchmarkAblationInterleave(b *testing.B) {
	for _, il := range []int64{16, 64, 256, 1024} {
		il := il
		b.Run(byteSize(il), func(b *testing.B) {
			benchVariant(b, codeletfft.Coarse, func(o *codeletfft.Options) {
				o.Machine.InterleaveBytes = il
			})
		})
	}
}

func BenchmarkAblationOutstanding(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8, 16} {
		k := k
		b.Run(byteSize(int64(k)), func(b *testing.B) {
			benchVariant(b, codeletfft.FineGuided, func(o *codeletfft.Options) {
				o.Machine.OutstandingRequests = k
			})
		})
	}
}

func BenchmarkAblationRowBuffer(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchVariant(b, codeletfft.Coarse, nil)
	})
	b.Run("on2KiB", func(b *testing.B) {
		benchVariant(b, codeletfft.Coarse, func(o *codeletfft.Options) {
			o.Machine.RowBytes = 2048
		})
	})
}

// BenchmarkHostTransform measures the raw numeric throughput of the
// staged FFT on the host (no machine simulation) — the cost of running
// the kernels themselves.
func BenchmarkHostTransform(b *testing.B) {
	opts := codeletfft.NewOptions(1<<15, codeletfft.FineGuided)
	for i := 0; i < b.N; i++ {
		res, err := codeletfft.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
	b.SetBytes(int64(1<<15) * 16)
}

// benchHost measures one forward+inverse round trip per iteration of the
// host FFT library (no machine simulation), on a one-worker plan or the
// full parallel engine. The round trip keeps magnitudes bounded across
// iterations so the same buffer can be reused.
func benchHost(b *testing.B, logN int, parallel bool) {
	b.Helper()
	n := 1 << logN
	opts := []codeletfft.HostOption{codeletfft.WithTaskSize(64)}
	if !parallel {
		opts = append(opts, codeletfft.WithWorkers(1))
	}
	h, err := codeletfft.NewHostPlan(n, opts...)
	if err != nil {
		b.Fatal(err)
	}
	data := noise(n, 1)
	b.SetBytes(int64(n) * 16 * 2) // forward + inverse
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Transform(data)
		_ = h.Inverse(data)
	}
}

// BenchmarkHostSerial / BenchmarkHostParallel measure the serial vs
// sharded host engine at N=2^16..2^22 so the speedup is a number, not an
// assertion:
//
//	go test -bench 'BenchmarkHost(Serial|Parallel)' -benchtime 3x
func BenchmarkHostSerial(b *testing.B) {
	for _, logN := range []int{16, 18, 20, 22} {
		b.Run(fmt.Sprintf("N=2^%d", logN), func(b *testing.B) { benchHost(b, logN, false) })
	}
}

func BenchmarkHostParallel(b *testing.B) {
	for _, logN := range []int{16, 18, 20, 22} {
		b.Run(fmt.Sprintf("N=2^%d", logN), func(b *testing.B) { benchHost(b, logN, true) })
	}
}

// BenchmarkHostBatch contrasts B transforms dispatched one at a time
// (sub-benchmark "loop") against one TransformBatch call ("batch") at
// the serving sweet spot N=4096, B=64. The batch path pays the stage
// barriers once for the whole batch and reuses pooled scratch, so it
// should win on any core count:
//
//	go test -bench BenchmarkHostBatch -benchtime 10x
func BenchmarkHostBatch(b *testing.B) {
	const logN, n, batchSize = 12, 1 << 12, 64
	h, err := codeletfft.NewHostPlan(n, codeletfft.WithThreshold(1))
	if err != nil {
		b.Fatal(err)
	}
	batch := make([][]complex128, batchSize)
	for i := range batch {
		batch[i] = noise(n, int64(i))
	}
	bytes := int64(n) * 16 * 2 * batchSize // forward + inverse per transform
	b.Run("loop", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			for _, d := range batch {
				_ = h.Transform(d)
			}
			for _, d := range batch {
				_ = h.Inverse(d)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			_ = h.TransformBatch(batch)
			_ = h.InverseBatch(batch)
		}
	})
}

// BenchmarkHostReal contrasts the complex transform of a real-valued
// signal ("complex") against the packed real-input path ("real") at
// N=2^20. The real path runs one N/2-point transform plus an O(N)
// unpack, about half the work:
//
//	go test -bench BenchmarkHostReal -benchtime 10x
func BenchmarkHostReal(b *testing.B) {
	const logN, n = 20, 1 << 20
	h, err := codeletfft.NewHostPlan(n)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, n)
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.Run("complex", func(b *testing.B) {
		data := make([]complex128, n)
		b.SetBytes(int64(n) * 16 * 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range data {
				data[j] = complex(x[j], 0)
			}
			_ = h.Transform(data)
		}
	})
	b.Run("real", func(b *testing.B) {
		rp, err := codeletfft.CachedRealPlan(n)
		if err != nil {
			b.Fatal(err)
		}
		spec := make([]complex128, rp.SpectrumLen())
		if err := rp.Transform(spec, x); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(n) * 16 * 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rp.Transform(spec, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHostKernels measures each butterfly kernel family on the
// parallel engine at N=2^20, plus the autotuned default ("auto"), as a
// forward+inverse round trip. This is the table behind the kernel
// autotuner: whichever family wins here is what KernelAuto resolves to
// for this shape on this machine:
//
//	go test -bench BenchmarkHostKernels -benchtime 3x
func BenchmarkHostKernels(b *testing.B) {
	const n = 1 << 20
	kernels := append([]codeletfft.Kernel{codeletfft.KernelAuto}, codeletfft.Kernels()...)
	for _, k := range kernels {
		b.Run(k.String(), func(b *testing.B) {
			h, err := codeletfft.NewHostPlan(n,
				codeletfft.WithTaskSize(64), codeletfft.WithKernel(k))
			if err != nil {
				b.Fatal(err)
			}
			data := noise(n, 1)
			b.SetBytes(int64(n) * 16 * 2) // forward + inverse
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = h.Transform(data)
				_ = h.Inverse(data)
			}
		})
	}
}

// BenchmarkHostSoA tracks the split-plane SIMD pipeline on its own axis
// — serial engine vs parallel engine with the fused radix-4 SoA kernel
// — so an SoA-specific regression (codelet dispatch, pack/unpack, sweep
// partitioning) gates even when the scalar kernels mask it in the
// aggregate. Compare against BenchmarkHostSerial/BenchmarkHostParallel
// at the same sizes for the scalar baseline:
//
//	go test -bench BenchmarkHostSoA -benchtime 3x
func BenchmarkHostSoA(b *testing.B) {
	for _, logN := range []int{18, 20} {
		for _, parallel := range []bool{false, true} {
			mode := "serial"
			if parallel {
				mode = "parallel"
			}
			b.Run(fmt.Sprintf("N=2^%d/%s", logN, mode), func(b *testing.B) {
				n := 1 << logN
				opts := []codeletfft.HostOption{
					codeletfft.WithTaskSize(64),
					codeletfft.WithKernel(codeletfft.KernelSoARadix4),
				}
				if !parallel {
					opts = append(opts, codeletfft.WithWorkers(1))
				}
				h, err := codeletfft.NewHostPlan(n, opts...)
				if err != nil {
					b.Fatal(err)
				}
				data := noise(n, 1)
				b.SetBytes(int64(n) * 16 * 2) // forward + inverse
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = h.Transform(data)
					_ = h.Inverse(data)
				}
			})
		}
	}
}

// BenchmarkMixedRadix measures the arbitrary-N planner against the
// power-of-two baseline at comparable sizes: N=2^20 (staged engine),
// 3·2^18 and 10^6 (mixed-radix codelets), and the prime 2^20+7
// (Bluestein, which pays for a 2^22-point convolution pair plus O(N)
// chirp sweeps — the padded-transform cost an arbitrary-N caller
// avoids everywhere except at large prime N). Forward transform only,
// so the ns/op across sub-benchmarks are directly comparable:
//
//	go test -bench BenchmarkMixedRadix -benchtime 5x
func BenchmarkMixedRadix(b *testing.B) {
	cases := []struct {
		name string
		n    int
	}{
		{"staged/N=2^20", 1 << 20},
		{"mixed/N=3x2^18", 3 << 18},
		{"mixed/N=10^6", 1000000},
		{"bluestein/N=2^20+7", 1<<20 + 7},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			h, err := codeletfft.NewHostPlan(c.n)
			if err != nil {
				b.Fatal(err)
			}
			x := noise(c.n, 1)
			data := make([]complex128, c.n)
			b.SetBytes(int64(c.n) * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(data, x)
				_ = h.Transform(data)
			}
		})
	}
}

// BenchmarkCluster contrasts the single-node parallel transform
// ("local") against a loopback cluster of in-process workers
// ("cluster/w=K") at large N. The loopback transport pays the full
// protocol cost — session framing, HTTP handler dispatch, admission,
// worker↔worker exchange — but no network, so this isolates the
// coordination overhead the distributed path adds over raw execution.
// At N=2^22 the resident four-step path works in cache-sized column
// and row blocks, which is where the cluster overtakes the single
// whole-array transform even on one machine:
//
//	go test -bench BenchmarkCluster -benchtime 5x
func BenchmarkCluster(b *testing.B) {
	for _, logN := range []int{20, 22} {
		n := 1 << logN
		data := noise(n, 1)
		scratch := make([]complex128, n)
		b.Run(fmt.Sprintf("N=2^%d/local", logN), func(b *testing.B) {
			h, err := codeletfft.CachedHostPlan(n)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n) * 16)
			for i := 0; i < b.N; i++ {
				copy(scratch, data)
				_ = h.Transform(scratch)
			}
		})
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("N=2^%d/cluster/w=%d", logN, workers), func(b *testing.B) {
				cl, err := cluster.NewLoopback(workers, cluster.Config{})
				if err != nil {
					b.Fatal(err)
				}
				defer cl.Close()
				ctx := context.Background()
				b.SetBytes(int64(n) * 16)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(scratch, data)
					if err := cl.TransformCtx(ctx, scratch); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkOOC measures the out-of-core staged path against the
// all-in-RAM host transform at the same sizes, per scheduling policy —
// the price of the spill staging (informational in CI's bench-compare
// artifact, not gated; the OOC path's value is its memory bound, not
// its speed). File I/O lands in the OS page cache at these sizes, so
// this measures staging overhead, not disk. The 2^20 fourstep row is
// the in-core FourStepPlan running the very tile kernel the staged
// phases call, so ooc ÷ fourstep is staging alone.
//
//	go test -bench BenchmarkOOC -benchtime 3x
func BenchmarkOOC(b *testing.B) {
	for _, logN := range []int{18, 20} {
		n := 1 << logN
		data := noise(n, 3)
		scratch := make([]complex128, n)
		b.Run(fmt.Sprintf("N=2^%d/incore", logN), func(b *testing.B) {
			h, err := codeletfft.CachedHostPlan(n)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n) * 16)
			for i := 0; i < b.N; i++ {
				copy(scratch, data)
				_ = h.Transform(scratch)
			}
		})
		if logN == 20 {
			b.Run("N=2^20/fourstep", func(b *testing.B) {
				fs, err := fft.NewFourStep(1<<10, 1<<10)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(n) * 16)
				for i := 0; i < b.N; i++ {
					copy(scratch, data)
					fs.Transform(scratch)
				}
			})
		}
		for _, pol := range []codeletfft.OOCPolicy{codeletfft.OOCFIFO(), codeletfft.OOCGuided(1)} {
			name := "fifo"
			if pol.Name() != "fifo" {
				name = "guided"
			}
			b.Run(fmt.Sprintf("N=2^%d/ooc/%s", logN, name), func(b *testing.B) {
				p, err := codeletfft.NewOOCPlan(n,
					codeletfft.OOCSpillDir(b.TempDir()),
					codeletfft.OOCMemoryBudget(64<<20),
					codeletfft.OOCSchedule(pol))
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(n) * 16)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(scratch, data)
					if err := p.Transform(scratch); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func byteSize(v int64) string { return fmt.Sprintf("%d", v) }

// BenchmarkConvolve measures overlap-save convolution throughput at a
// 2^18-sample signal across kernel sizes spanning the segmentation
// regimes: a short FIR (many fresh samples per segment), a medium
// kernel, and one long enough to force large segments. Informational in
// CI (tracked as an artifact, not gated):
//
//	go test -bench BenchmarkConvolve -benchtime 3x
func BenchmarkConvolve(b *testing.B) {
	const n = 1 << 18
	x := noise(n, 1)
	for _, k := range []int{63, 1023, 16383} {
		p, err := codeletfft.NewConvPlan(n, k)
		if err != nil {
			b.Fatal(err)
		}
		h := noise(k, 2)
		dst := make([]complex128, p.OutLen())
		b.Run(fmt.Sprintf("N=2^18/K=%d", k), func(b *testing.B) {
			b.SetBytes(int64(n) * 16)
			for i := 0; i < b.N; i++ {
				if err := p.Convolve(dst, x, h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The streaming filter at a realistic chunk size, same signal.
	p, err := codeletfft.NewConvPlan(n, 1023)
	if err != nil {
		b.Fatal(err)
	}
	f, err := p.FilterStream(noise(1023, 2))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]complex128, 4096)
	b.Run("N=2^18/K=1023/stream4096", func(b *testing.B) {
		b.SetBytes(int64(n) * 16)
		for i := 0; i < b.N; i++ {
			f.Reset()
			for off := 0; off < n; off += len(buf) {
				if err := f.Process(buf, x[off:off+len(buf)]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSTFT measures spectrogram throughput over a 2^18-sample
// signal: the batched Transform (all frames in one dispatch) and the
// streaming one-frame-at-a-time path. Informational in CI:
//
//	go test -bench BenchmarkSTFT -benchtime 3x
func BenchmarkSTFT(b *testing.B) {
	const n = 1 << 18
	const frame, hop = 1024, 256
	sig := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range sig {
		sig[i] = rng.NormFloat64()
	}
	p, err := codeletfft.NewSTFTPlan(frame, hop, codeletfft.HannWindow(frame))
	if err != nil {
		b.Fatal(err)
	}
	nf := p.NumFrames(n)
	dst := make([][]complex128, nf)
	for i := range dst {
		dst[i] = make([]complex128, frame)
	}
	b.Run("frame=1024/hop=256/batch", func(b *testing.B) {
		b.SetBytes(int64(n) * 8)
		for i := 0; i < b.N; i++ {
			if err := p.Transform(dst, sig); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("frame=1024/hop=256/stream", func(b *testing.B) {
		s := p.Stream()
		out := make([]complex128, frame)
		b.SetBytes(int64(n) * 8)
		for i := 0; i < b.N; i++ {
			s.Reset()
			for off := 0; off < n; off += hop {
				s.Write(sig[off:min(off+hop, n)])
				if _, err := s.Next(out); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
