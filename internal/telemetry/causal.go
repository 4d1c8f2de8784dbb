package telemetry

// Causal context: every registry carries a Lamport clock, a node label,
// and the identifier of the adaptation trace currently in progress. The
// manager and the agents stamp outgoing protocol messages from these and
// merge the clock on receipt, which totally orders the distributed
// reconfiguration events of one adaptation across process boundaries —
// the property the paper's audit needs globally, not per node.
//
// All methods are nil-safe: on a nil *Registry they are no-ops returning
// zero values, so the uninstrumented fast path stays allocation-free.

// SetNode labels the registry with the process it instruments ("manager",
// "handheld", ...). The label is recorded on spans and post-mortem
// bundles; it is what lets the postmortem tool attribute merged events.
func (r *Registry) SetNode(name string) {
	if r == nil {
		return
	}
	r.node.Store(&name)
}

// Node returns the registry's node label ("" on nil or when unset).
func (r *Registry) Node() string {
	if r == nil {
		return ""
	}
	if p := r.node.Load(); p != nil {
		return *p
	}
	return ""
}

// LamportTick advances the Lamport clock for a send event and returns the
// new value — the stamp to put on the outgoing message. Returns 0 on nil.
func (r *Registry) LamportTick() uint64 {
	if r == nil {
		return 0
	}
	return r.lamport.Add(1)
}

// LamportMerge folds a received message's stamp into the local clock
// (max(local, remote)+1, the Lamport receive rule) and returns the new
// local value. Returns 0 on nil.
func (r *Registry) LamportMerge(remote uint64) uint64 {
	if r == nil {
		return 0
	}
	for {
		cur := r.lamport.Load()
		next := cur
		if remote > next {
			next = remote
		}
		next++
		if r.lamport.CompareAndSwap(cur, next) {
			return next
		}
	}
}

// LamportNow returns the current Lamport time without advancing it —
// the stamp for local observations (state transitions, timeouts).
// Returns 0 on nil.
func (r *Registry) LamportNow() uint64 {
	if r == nil {
		return 0
	}
	return r.lamport.Load()
}

// SetActiveTrace declares the adaptation trace in progress. Spans and
// events recorded from now on are tagged with it; the manager calls this
// when an adaptation starts, agents adopt it from incoming messages.
func (r *Registry) SetActiveTrace(id string) {
	if r == nil {
		return
	}
	r.activeTrace.Store(&id)
}

// AdoptActiveTrace is SetActiveTrace that skips the store when the trace
// is already current — the per-message hot path on agents, which then
// allocates nothing.
func (r *Registry) AdoptActiveTrace(id string) {
	if r == nil || id == "" {
		return
	}
	if p := r.activeTrace.Load(); p != nil && *p == id {
		return
	}
	adopted := id // the heap copy the store needs, made only on a new trace
	r.activeTrace.Store(&adopted)
}

// ActiveTrace returns the current adaptation trace ID ("" when none).
func (r *Registry) ActiveTrace() string {
	if r == nil {
		return ""
	}
	if p := r.activeTrace.Load(); p != nil {
		return *p
	}
	return ""
}
