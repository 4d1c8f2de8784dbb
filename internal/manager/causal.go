package manager

import (
	"repro/internal/protocol"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Causal-tracing glue: the manager stamps every outgoing command with the
// adaptation's trace context (trace ID, causing span, Lamport send tick),
// merges the clock of every reply it receives, and mirrors both into the
// flight recorder. With telemetry disabled all of this collapses to one
// nil check per call.

// nodeName is the manager's node label for trace contexts and flight
// events ("manager" unless the registry was labeled otherwise).
func (m *Manager) nodeName() string {
	if n := m.tel.Node(); n != "" {
		return n
	}
	return protocol.ManagerName
}

// stamp applies the manager's send-side discipline to one outgoing
// message — fencing epoch, causal trace context (cause is the span whose
// work the message carries out; agents parent their spans under it), and
// a flight-recorder send event — and returns the stamped message.
func (m *Manager) stamp(msg protocol.Message, cause *telemetry.Span) protocol.Message {
	// Every outgoing message carries this incarnation's fencing epoch (0
	// when journalless, which agents always admit).
	msg.Epoch = m.epoch
	if m.tel.Enabled() {
		msg.Trace = protocol.TraceContext{
			TraceID: m.tel.ActiveTrace(),
			SpanID:  cause.ID(),
			Origin:  m.nodeName(),
			Lamport: m.tel.LamportTick(),
		}
		if fr := m.tel.Flight(); fr.Enabled() {
			fr.Record(telemetry.FlightEvent{
				Kind:    telemetry.FlightSend,
				Lamport: msg.Trace.Lamport,
				TraceID: msg.Trace.TraceID,
				MsgType: msg.Type.String(),
				From:    m.nodeName(),
				To:      msg.To,
				Step:    msg.Step.Key(),
				Epoch:   m.epoch,
			})
		}
	}
	return msg
}

// send stamps msg and hands it to the transport.
func (m *Manager) send(msg protocol.Message, cause *telemetry.Span) error {
	return m.ep.Send(m.stamp(msg, cause))
}

// sendWave stamps every message of one wave in slice order and fires the
// wave as a unit: when the transport can batch (transport.BatchSender —
// the TCP hub and the fleet plane), messages that share a child link leave
// as one frame; otherwise the sends are pipelined back-to-back without
// awaiting anything in between. Either way no ack is read until the whole
// wave is in flight, which is what turns the old send→await-per-agent
// O(n) serial round into one fan-out. Per-message failures are treated as
// message loss (the protocol's ladder recovers); the first error is
// returned after every message has been attempted.
func (m *Manager) sendWave(msgs []protocol.Message, cause *telemetry.Span) error {
	if len(msgs) == 0 {
		return nil
	}
	for i := range msgs {
		msgs[i] = m.stamp(msgs[i], cause)
	}
	m.observeWave(msgs)
	if bs, ok := m.ep.(transport.BatchSender); ok {
		return bs.SendBatch(msgs)
	}
	var firstErr error
	for _, msg := range msgs {
		if err := m.ep.Send(msg); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// observeWave notifies the wave observer of one outgoing command wave.
// Only adaptation commands open ack frontiers — heartbeats, probes and
// other traffic are invisible to the fleet model.
func (m *Manager) observeWave(msgs []protocol.Message) {
	obs := m.opts.Observer
	if obs == nil || len(msgs) == 0 {
		return
	}
	//safeadaptvet:ignore-msg MsgResetDone MsgResetFailed MsgAdaptDone MsgAdaptFailed MsgResumeDone MsgRollbackDone MsgProbe MsgProbeAck MsgHello MsgHeartbeat MsgBatch MsgMetricReport -- only the three adaptation commands open ack frontiers in the fleet model; heartbeats, probes and replies are deliberately invisible to the wave observer
	switch msgs[0].Type {
	case protocol.MsgReset, protocol.MsgResume, protocol.MsgRollback:
	default:
		return
	}
	targets := make([]string, len(msgs))
	for i, msg := range msgs {
		targets[i] = msg.To
	}
	obs.WaveSent(msgs[0].Step, msgs[0].Type, targets)
}

// observeAck notifies the wave observer of one consumed acknowledgement.
func (m *Manager) observeAck(step protocol.Step, ack protocol.MsgType, from string, agents []string) {
	if m.opts.Observer != nil {
		m.opts.Observer.WaveAcked(step, ack, from, agents)
	}
}

// noteRecv merges a received reply's Lamport stamp into the local clock
// (the Lamport receive rule) and records the receive in the flight
// recorder. Called exactly once per message, at the transport receive
// sites in await — stash replays do not re-merge.
func (m *Manager) noteRecv(msg protocol.Message) {
	if !m.tel.Enabled() {
		return
	}
	lam := m.tel.LamportMerge(msg.Trace.Lamport)
	if fr := m.tel.Flight(); fr.Enabled() {
		fr.Record(telemetry.FlightEvent{
			Kind:    telemetry.FlightRecv,
			Lamport: lam,
			TraceID: msg.Trace.TraceID,
			MsgType: msg.Type.String(),
			From:    msg.From,
			To:      m.nodeName(),
			Step:    msg.Step.Key(),
		})
	}
}

// flightEvent records a local observation — state change, timeout firing,
// rollback decision — in the flight recorder at the current Lamport time.
func (m *Manager) flightEvent(kind, detail string) {
	fr := m.tel.Flight()
	if !fr.Enabled() {
		return
	}
	fr.Record(telemetry.FlightEvent{
		Kind:    kind,
		Lamport: m.tel.LamportNow(),
		TraceID: m.tel.ActiveTrace(),
		Detail:  detail,
		Epoch:   m.epoch,
	})
}
