package main

import (
	"encoding/json"
	"math"
	"math/cmplx"
	"os"
	"reflect"
	"regexp"
	"testing"

	"codeletfft/internal/serve"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestQuantiles(t *testing.T) {
	v := []float64{9, 1, 5, 3, 7}
	if got := median(v); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := quantile(v, 0.95); !near(got, 8.6) {
		t.Errorf("p95 = %v, want 8.6", got)
	}
	if !reflect.DeepEqual(v, []float64{9, 1, 5, 3, 7}) {
		t.Errorf("quantile reordered its input: %v", v)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := pyQuartiles(ten)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("pyQuartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q2, q3 = pyQuartiles([]float64{1, 2, 3, 4, 5})
	if !near(q1, 1.5) || !near(q2, 3) || !near(q3, 4.5) {
		t.Errorf("pyQuartiles(1..5) = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
	if got := spread(ten); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestRoundRatios(t *testing.T) {
	ops := [][]float64{{100, 300, 200}, {}, {50}}
	got := roundRatios(ops, []float64{10, 10, 25})
	if want := []float64{20, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("roundRatios = %v, want %v (median op ÷ calib, empty round skipped)", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Cat: catOp, Parent: -1, Start: 0, End: 100},
		{Name: "a", Cat: catPow2, Parent: 0, Start: 10, End: 40},
		{Name: "b", Cat: catPow2, Parent: 0, Start: 30, End: 60},    // overlaps a: covered once
		{Name: "c", Cat: catVerify, Parent: 0, Start: 90, End: 120}, // clipped to the parent
		{Name: "a1", Cat: catLookup, Parent: 1, Start: 12, End: 20},
	}
	want := []int64{100 - 50 - 10, 30 - 8, 30, 30, 8}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	byCat := selfByCat(spans)
	if byCat[catPow2] != 52 || byCat[catOp] != 40 || byCat[catLookup] != 8 {
		t.Errorf("selfByCat = %v", byCat)
	}
}

// TestOpClock pins what the op clock counts: timed sections only, with
// verification and grouping off the clock, and the span tree they leave.
func TestOpClock(t *testing.T) {
	tr := newTracer()
	x := &opCtx{}
	x.reset(7, true, tr)
	root := x.open("op", catOp, tr.epoch)
	x.group("g", catPow2, func() {
		x.timed("t", catPow2, func() error { return nil })
		x.verified(func() error { return os.ErrInvalid })
	})
	x.shut(root, tr.epoch)
	if x.wrong == nil || x.err != nil {
		t.Fatalf("wrong=%v err=%v, want a wrong result and no failure", x.wrong, x.err)
	}
	var names []string
	for _, s := range tr.spans {
		names = append(names, s.Name)
		if s.Op != 7 {
			t.Errorf("span %s has op %d, want 7", s.Name, s.Op)
		}
	}
	if want := []string{"op", "g", "t", "verify"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("spans %v, want %v", names, want)
	}
	if p := []int{tr.spans[0].Parent, tr.spans[1].Parent, tr.spans[2].Parent, tr.spans[3].Parent}; !reflect.DeepEqual(p, []int{-1, 0, 1, 1}) {
		t.Errorf("parents %v, want [-1 0 1 1]", p)
	}
	timedSpan := tr.spans[2]
	if d := int64(x.elapsed); d < timedSpan.End-timedSpan.Start {
		t.Errorf("op clock %d ns is shorter than its only timed span (%d ns)", d, timedSpan.End-timedSpan.Start)
	}
	x.timed("after failure", catPow2, func() error { return os.ErrClosed })
	x.timed("skipped", catPow2, func() error { t.Error("ran a step after the op failed"); return nil })
	if x.err != os.ErrClosed {
		t.Errorf("err = %v, want the first failure", x.err)
	}
}

func TestUnitRoot(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 1000, 1009, 4096} {
		for m := -n; m < 2*n; m++ {
			want := cmplx.Exp(complex(0, -2*math.Pi*float64(m)/float64(n)))
			if got := unitRoot(m, n); cmplx.Abs(got-want) > 4e-15 {
				t.Fatalf("unitRoot(%d, %d) = %v, want %v", m, n, got, want)
			}
		}
	}
	// The oracle against the library's own O(N²) reference.
	x := randomComplex(newRNG(1, 1), 60)
	bins := pickBins(60, 60)
	for name, got := range map[string][]complex128{
		"dftBins":      dftBins(x, rootTable(60), bins),
		"dftBinsExact": dftBinsExact(x, rootTable(60), bins),
	} {
		if err := closeTo(name, got, dftReference(x)); err != nil {
			t.Error(err)
		}
	}
}

// dftReference is the textbook double loop.
func dftReference(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := range out {
		for j, v := range x {
			out[k] += v * cmplx.Exp(complex(0, -2*math.Pi*float64(j*k%n)/float64(n)))
		}
	}
	return out
}

func TestSeedSetsTheInputs(t *testing.T) {
	a, b := randomComplex(newRNG(7, 1), 64), randomComplex(newRNG(7, 1), 64)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different values")
	}
	if reflect.DeepEqual(a, randomComplex(newRNG(8, 1), 64)) {
		t.Error("different seeds gave the same values")
	}
	if reflect.DeepEqual(a, randomComplex(newRNG(7, 2), 64)) {
		t.Error("different streams of one seed gave the same values")
	}

	inputs := func(seed uint64) ([]serve.Frame, []complex128) {
		s := &serveMixed{}
		if err := s.setup(seed); err != nil {
			t.Fatal(err)
		}
		defer s.close()
		c := &clusterLoop{nWorkers: 1}
		if err := c.setup(seed); err != nil {
			t.Fatal(err)
		}
		defer c.close()
		return s.reqs, c.orig
	}
	r1, c1 := inputs(11)
	r2, c2 := inputs(11)
	r3, c3 := inputs(12)
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(c1, c2) {
		t.Error("two set-ups from one seed generated different inputs")
	}
	if reflect.DeepEqual(r1, r3) || reflect.DeepEqual(c1, c3) {
		t.Error("set-ups from different seeds generated the same inputs")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)

// TestSpecMatchesFile holds BENCHMARK.json to the tables in the code
// and both to the contract's limits.
func TestSpecMatchesFile(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(file) != string(specJSON()) {
		t.Error("BENCHMARK.json differs from `bench -spec`; regenerate it")
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(file, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(doc))
	}

	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's character set", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s is outside the contract's character set", unit, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		check(w.name, "")
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.name, m.unit)
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		hasSetup = hasSetup || (m.name == "setup_s" && m.unit == "s" && m.better == lower)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range perLayer {
		check(m.name, m.unit)
	}
}

func metricNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	return names
}

// expectLedger checks that a run reported exactly the metrics of defs.
func expectLedger(t *testing.T, res *runResult, defs []metricDef) {
	t.Helper()
	if !reflect.DeepEqual(metricNames(res.defs), metricNames(defs)) {
		t.Errorf("run prints %v, want %v", metricNames(res.defs), metricNames(defs))
	}
	if len(res.metrics) != len(defs) {
		t.Errorf("run measured %d metrics, want %d", len(res.metrics), len(defs))
	}
	for _, d := range defs {
		if _, ok := res.metrics[d.name]; !ok {
			t.Errorf("metric %s was not measured", d.name)
		}
	}
}

// TestSmokeWorkloads runs every workload for a second and checks the
// result against the contract: the end-to-end names, verified outputs,
// no failures, and non-zero values.
func TestSmokeWorkloads(t *testing.T) {
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.name, func(t *testing.T) {
			t.Parallel()
			res, err := run(runConfig{def: def, seed: 42, seconds: 1, setups: 1, rounds: 3, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			expectLedger(t, res, endToEnd)
			if !res.correct() || res.failed != 0 || res.attempted < 3 {
				t.Errorf("correct=%v attempted=%d failed=%d (%v)", res.correct(), res.attempted, res.failed, res.firstErr)
			}
			for _, d := range endToEnd {
				if v := res.metrics[d.name]; !(v > 0) {
					t.Errorf("%s = %v, want a positive number", d.name, v)
				}
			}
		})
	}
}

// TestTracedLedger runs one traced run end to end: every per-layer
// name is reported and the span file is written. The layer probes take
// some twenty seconds, so -short skips it.
func TestTracedLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("the layer probes take about twenty seconds")
	}
	dir := t.TempDir()
	res, err := run(runConfig{def: findWorkload("serve_mixed"), seed: 42, seconds: 1, rounds: 4, trace: true, outDir: dir, fp: readFingerprint(dir)})
	if err != nil {
		t.Fatal(err)
	}
	expectLedger(t, res, perLayer)
	if !res.correct() || res.failed != 0 {
		t.Errorf("correct=%v failed=%d (%v)", res.correct(), res.failed, res.firstErr)
	}
	b, err := os.ReadFile(dir + "/serve_mixed.trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.SpansTotal == 0 || len(tf.Spans) != tf.SpansWritten || tf.Fingerprint.GoVersion == "" {
		t.Errorf("trace file: %d spans of %d, fingerprint %+v", len(tf.Spans), tf.SpansTotal, tf.Fingerprint)
	}
	for _, share := range []string{"share.encode", "share.http", "share.decode"} {
		if !(res.metrics[share] > 0) {
			t.Errorf("%s = %v on serve_mixed, want a positive share", share, res.metrics[share])
		}
	}
}

// TestCorruptionCounts plants a damaged reply and a damaged spectrum:
// both must be counted as wrong, drop slo_ok_share below 1 and make the
// run incorrect (which the command turns into a non-zero exit).
func TestCorruptionCounts(t *testing.T) {
	cases := map[string]func(workload){
		"serve_mixed": func(w workload) {
			replies := 0
			w.(*serveMixed).corrupt = func(step int, reply []byte) {
				// Leave the set-up's first cycles alone, then flip an
				// exponent bit in every forward-4096 reply.
				if replies++; replies > 2*len(serveCycle) && step == 0 {
					reply[len(reply)-2] ^= 0x10
				}
			}
		},
		"ooc_spill": func(w workload) {
			ops := 0
			w.(*oocSpill).corrupt = func(data []complex128) {
				if ops++; ops > 1 {
					data[12345] += 1e-12
				}
			}
		},
	}
	for name, hook := range cases {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := run(runConfig{def: findWorkload(name), seed: 5, seconds: 1, setups: 1, rounds: 3, outDir: t.TempDir(), hook: hook})
			if err != nil {
				t.Fatal(err)
			}
			if res.correct() || res.wrong == 0 || res.failed < res.wrong {
				t.Errorf("correct=%v wrong=%d failed=%d, want the damage counted", res.correct(), res.wrong, res.failed)
			}
			if share := res.metrics["slo_ok_share"]; !(share < 1) {
				t.Errorf("slo_ok_share = %v, want below 1", share)
			}
		})
	}
}
