package codeletfft

// ForwardSchedule exposes the identity of a plan's forward schedule, so
// the external tests can tell a shared core from an equal one.
func ForwardSchedule(h *HostPlan) any { return h.core.fwd }
