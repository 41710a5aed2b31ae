package main

import (
	"time"
)

// Span categories: the layer (or codelet family) a timed call belongs
// to. share.<cat> in the traced ledger is the category's self time over
// the op clock.
const (
	catLookup    = "plan_lookup"
	catPow2      = "pow2"
	catMixed     = "mixed"
	catBluestein = "bluestein"
	catReal      = "real"
	catConv      = "conv"
	catSTFT      = "stft"
	catEncode    = "encode"
	catHTTP      = "http"
	catDecode    = "decode"
	catCluster   = "cluster"
	catOOC       = "ooc"
	catVerify    = "verify"
	catOp        = "op"
)

// shareCats are the categories reported as share.<cat>; catOp (loop
// overhead between calls) is reported as share.other and catVerify is
// off the clock.
var shareCats = []string{catLookup, catPow2, catMixed, catBluestein, catReal,
	catConv, catSTFT, catEncode, catHTTP, catDecode, catCluster, catOOC}

// sizeCat is a transform length with the span category of the codelet
// family it routes to.
type sizeCat struct {
	n   int
	cat string
}

// workload is one benchmark workload. setup is the cold set-up the
// setup_s metric times: it builds fresh program objects (plans, server,
// cluster, spill plan) and generates the inputs from the seed; it may
// be called again after close. prepare builds verification references
// from the inputs, off every clock, and is idempotent. op runs one full
// pass over the workload's fixed shape list for one client.
type workload interface {
	setup(seed uint64) error
	prepare() error
	op(x *opCtx)
	close()
}

// workloadDef is the fixed description of a workload.
type workloadDef struct {
	name string
	why  string
	// sloMs is the op latency limit of slo_ok_share, about three times
	// the seed's op_ms_p50 on the dev box.
	sloMs float64
	// calib selects the kernel op_rel_p50 is normalised by: calibL2 or
	// calibMem.
	calib int
	// setups is k, the number of cold set-ups whose median is setup_s.
	setups int
	// clients is the number of closed-loop callers.
	clients int
	// points is the number of input points one op transforms, for
	// raw.mpts_per_s.
	points float64
	new    func(outDir string) workload
}

// opCtx is the clock, failure ledger and span recorder of one op. Only
// timed sections count towards the op's time; verification runs between
// them, off the clock.
type opCtx struct {
	tr     *tracer // nil unless this op is traced
	id     int
	client int
	// check asks the op to also compare forward spectra against the
	// references (once per round); cheap checks run on every op.
	check bool

	elapsed time.Duration
	verify  time.Duration
	err     error // the op failed: a call returned an error
	wrong   error // the op returned a wrong result
	parent  int   // innermost open span, -1 at top level
}

func (x *opCtx) reset(id int, check bool, tr *tracer) {
	*x = opCtx{tr: tr, id: id, client: x.client, check: check, parent: -1}
}

// ok reports whether the op may go on: after a failure the remaining
// steps are skipped.
func (x *opCtx) ok() bool { return x.err == nil }

func (x *opCtx) open(name, cat string, at time.Time) int {
	if x.tr == nil {
		return -1
	}
	i := x.tr.begin(name, cat, x.id, x.parent, at)
	x.parent = i
	return i
}

func (x *opCtx) shut(i int, at time.Time) {
	if i < 0 {
		return
	}
	x.parent = x.tr.end(i, at)
}

// timed runs f on the op clock, as one span. Timed sections do not
// nest; group them with group.
func (x *opCtx) timed(name, cat string, f func() error) {
	if x.err != nil {
		return
	}
	t0 := time.Now()
	sp := x.open(name, cat, t0)
	err := f()
	t1 := time.Now()
	if sp >= 0 {
		x.shut(sp, t1)
		t1 = time.Now() // the tracer's own cost stays on the clock
	}
	x.elapsed += t1.Sub(t0)
	if err != nil {
		x.err = err
	}
}

// group wraps several sections in one parent span without touching the
// clock.
func (x *opCtx) group(name, cat string, f func()) {
	sp := x.open(name, cat, time.Now())
	f()
	x.shut(sp, time.Now())
}

// verified runs a correctness check off the clock; a non-nil result
// marks the op wrong.
func (x *opCtx) verified(f func() error) {
	if x.err != nil {
		return
	}
	t0 := time.Now()
	sp := x.open("verify", catVerify, t0)
	err := f()
	t1 := time.Now()
	x.shut(sp, t1)
	x.verify += t1.Sub(t0)
	if err != nil && x.wrong == nil {
		x.wrong = err
	}
}
