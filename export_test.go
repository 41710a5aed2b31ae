package codeletfft

// ForwardSchedule exposes the identity of a plan's forward schedule, so
// the external tests can tell a shared core from an equal one.
func ForwardSchedule(h *HostPlan) any { return h.core.fwd }

// WithThreshold moves the plan's serial cut — the element count (N for
// one transform, B·N for a batch) below which a call runs serially,
// host.DefaultThreshold unless set — so the external tests can force
// the parallel path at every size with 1.
func WithThreshold(n int) HostOption {
	return func(o hostOpts) hostOpts { o.threshold = n; return o }
}

// ConvSegmentPlan and STFTFramePlan expose the plan a convolution's
// segments and a spectrogram's frames run on, so the external tests can
// check where the length routed.
func ConvSegmentPlan(p *ConvPlan) *HostPlan { return p.seg }

func STFTFramePlan(p *STFTPlan) *HostPlan { return p.plan }
