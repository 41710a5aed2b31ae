// Benchmarks regenerating each table and figure of the paper, plus
// ablations over the design choices called out in DESIGN.md. The figure
// benchmarks run the experiment suite in quick mode and report the
// headline simulated metric alongside wall-clock time; `go run
// ./cmd/figures` produces the full-size sweeps.
package codeletfft_test

import (
	"fmt"
	"testing"

	"codeletfft"
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

func byteSize(v int64) string { return fmt.Sprintf("%d", v) }

// BenchmarkDefaultPow2 sets the cut fft.MixedPow2 draws: serial forward
// plus inverse, in ns per point, of the default plan of each power of
// two 2^1…2^22 — its Algorithm() in the name — against the staged plan
// pinned to the kernel the rule names (fft.AutoKernel). The range the
// rule moves to the mixed-radix plan is where the default wins on the
// build whose vector codelets run; elsewhere the two are one plan.
func BenchmarkDefaultPow2(b *testing.B) {
	for lg := 1; lg <= 22; lg++ {
		n := 1 << lg
		for _, which := range []string{"default", "pinned"} {
			opts := []codeletfft.HostOption{codeletfft.WithWorkers(1)}
			if which == "pinned" {
				opts = append(opts, codeletfft.WithKernel(fft.AutoKernel(n)))
			}
			h, err := codeletfft.NewHostPlan(n, opts...)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("n=%d/%s=%s", n, which, h.Algorithm()), func(b *testing.B) {
				data := noise(n, int64(n))
				for range b.N {
					if err := h.Transform(data); err != nil {
						b.Fatal(err)
					}
					if err := h.Inverse(data); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/pt")
			})
		}
	}
}
