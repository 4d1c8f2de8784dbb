package monitor

import (
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// LossRate returns a Source estimating the datagram loss fraction of
// one netsim link. Each tick computes dropped/(delivered+dropped) over
// the datagrams since the previous tick and folds it into an
// exponentially-weighted moving average; a window with no traffic holds
// the previous estimate. Both choices defend the hysteresis loop
// against the adaptation's own side effects: while a triggered swap is
// blocking the link, the measurement windows turn sparse or silent, and
// neither silence nor one lucky drop-free window of two datagrams is
// evidence that the link recovered. The first window with traffic seeds
// the estimate directly, so a genuinely dead link reads 1.0 on the
// first sample rather than ramping up from zero.
//
// The returned closure keeps per-tick state, so it must only be used as
// one rule's Source (Tick samples each source from one goroutine).
func LossRate(sub *netsim.Subscription) func() float64 {
	const alpha = 0.5 // EWMA weight of the newest window
	var lastDelivered, lastDropped int
	var est float64
	primed := false
	return func() float64 {
		delivered, dropped := sub.Stats()
		dDel := delivered - lastDelivered
		dDrop := dropped - lastDropped
		lastDelivered, lastDropped = delivered, dropped
		if dDel+dDrop > 0 {
			w := float64(dDrop) / float64(dDel+dDrop)
			if primed {
				est = alpha*w + (1-alpha)*est
			} else {
				est, primed = w, true
			}
		}
		return est
	}
}

// CounterRate returns a Source measuring how much the named counter
// advanced since the previous tick. Like LossRate, the closure is
// stateful: one rule per source.
func CounterRate(reg *telemetry.Registry, name string) func() float64 {
	var last int64
	return func() float64 {
		v := reg.Counter(name).Value()
		d := v - last
		last = v
		return float64(d)
	}
}
