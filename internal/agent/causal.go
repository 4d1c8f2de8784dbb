package agent

import (
	"repro/internal/protocol"
	"repro/internal/telemetry"
)

// Causal-tracing glue, the agent half: every incoming command merges its
// Lamport stamp into the local clock and adopts the manager's trace ID;
// every outgoing reply carries the agent's clock back. Both directions are
// mirrored into the flight recorder. Disabled telemetry costs one nil
// check per call.

// noteRecv applies the Lamport receive rule to an incoming command, adopts
// its adaptation trace, and records the receive in the flight recorder.
// Called once per message at the top of handle.
func (a *Agent) noteRecv(msg protocol.Message) {
	if !a.tel.Enabled() {
		return
	}
	a.tel.AdoptActiveTrace(msg.Trace.TraceID)
	lam := a.tel.LamportMerge(msg.Trace.Lamport)
	if fr := a.tel.Flight(); fr.Enabled() {
		fr.Record(telemetry.FlightEvent{
			Kind:    telemetry.FlightRecv,
			Lamport: lam,
			TraceID: msg.Trace.TraceID,
			MsgType: msg.Type.String(),
			From:    msg.From,
			To:      a.name,
			Step:    msg.Step.Key(),
		})
	}
}

// flightEvent records a local observation (state change, reset timeout,
// rollback) in the flight recorder at the current Lamport time, attributed
// to this agent even on a registry shared with the manager.
func (a *Agent) flightEvent(kind, detail string) {
	fr := a.tel.Flight()
	if !fr.Enabled() {
		return
	}
	fr.Record(telemetry.FlightEvent{
		Kind:    kind,
		Lamport: a.tel.LamportNow(),
		TraceID: a.tel.ActiveTrace(),
		Node:    a.name,
		Detail:  detail,
		Epoch:   a.Epoch(),
	})
}

// startSpan opens the span name+actionID for step, attributed to this agent
// and parented under the manager-side span named by tc (the remote parent
// propagated in the command that caused this work). A zero tc leaves the
// span a root. With telemetry off it returns nil before building the name
// or the attributes: nil telemetry formats nothing. The adopted step's key
// was formatted when the step was adopted; only another step's is
// formatted here.
func (a *Agent) startSpan(name, actionID string, step protocol.Step, tc protocol.TraceContext) *telemetry.Span {
	if !a.tel.Enabled() {
		return nil
	}
	key := a.curKey
	if !a.haveStep || !sameStep(step, a.curStep) {
		key = step.Key()
	}
	s := a.tel.StartSpan(name+actionID,
		telemetry.String("agent", a.name),
		telemetry.String("step", key))
	s.SetNode(a.name)
	s.SetRemoteParent(tc.Origin, tc.SpanID)
	return s
}
