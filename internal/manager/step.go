package manager

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/journal"
	"repro/internal/protocol"
	"repro/internal/sag"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// executeStep coordinates one adaptation step: the reset wave (phase by
// phase), the adapt-done barrier, and the resume wave. On a failure
// before the first resume message it rolls every participant back and
// returns a non-nil error with the system at step.From; cancellation via
// ctx counts as such a failure (rollback, then the context error
// propagates). A failure after the first resume returns *errPastNoReturn
// — from that point the step ignores ctx and runs to completion.
func (m *Manager) executeStep(ctx context.Context, parent *telemetry.Span, step sag.Edge, pathIndex, attempt int) (rep StepReport, err error) {
	rep = StepReport{
		ActionID: step.Action.ID,
		From:     m.plan.BitVector(step.From),
		To:       m.plan.BitVector(step.To),
		Attempt:  attempt,
	}
	m.stash = m.stash[:0] // drop replies from earlier steps

	m.tel.Counter("manager.steps").Inc()
	stepStart := m.opts.Clock.Now()
	// Nil telemetry formats nothing: a span's name and attributes are built
	// only when it has a parent to record it.
	var stepSpan *telemetry.Span
	if parent != nil {
		stepSpan = parent.Child("step "+step.Action.ID,
			telemetry.String("from", rep.From),
			telemetry.String("to", rep.To),
			telemetry.String("attempt", strconv.Itoa(attempt)))
	}
	defer func() {
		m.tel.Histogram("manager.step.latency").Observe(m.opts.Clock.Now().Sub(stepStart))
		if rep.BlockedFor > 0 {
			// Safe-state dwell: the partial-operation window of this step.
			m.tel.Histogram("manager.step.dwell").Observe(rep.BlockedFor)
		}
		stepSpan.SetAttr("outcome", rep.Outcome)
		if err != nil {
			stepSpan.SetError(err)
		}
		stepSpan.End()
	}()

	participants, phases, perr := m.plan.Participants(step.Action.ID)
	if perr != nil {
		rep.Outcome = "failed"
		rep.Err = perr.Error()
		return rep, perr
	}
	if m.opts.ResetPhases != nil {
		if policy := m.opts.ResetPhases(step.Action, participants); len(policy) > 0 {
			phases = policy
		}
	}
	// The phase policy may conscript processes beyond the action's own
	// participants — e.g. a data-flow upstream sender, so that a
	// downstream decoder swap happens after everything sent before the
	// step has landed (the global safe condition). Conscripted processes
	// take part in the step fully: they are reset, acknowledge, and resume
	// with everyone else; whether one with no operation blocks meanwhile
	// is its own affair (a MetaSocket does not). participants and the
	// one-phase wave are the planner's, shared by every step of the
	// action: clipped, the first append copies, and only a copy is sorted.
	seen := make(map[string]bool, len(participants))
	for _, p := range participants {
		seen[p] = true
	}
	shared := len(participants)
	participants = slices.Clip(participants)
	for _, phase := range phases {
		for _, p := range phase {
			if !seen[p] {
				seen[p] = true
				participants = append(participants, p)
			}
		}
	}
	if len(participants) > shared {
		slices.Sort(participants)
	}

	pstep := protocol.Step{
		PathIndex:    pathIndex,
		Attempt:      attempt,
		ActionID:     step.Action.ID,
		Ops:          step.Action.Ops,
		Participants: participants,
		ResetPhases:  phases,
		FromVector:   rep.From,
		ToVector:     rep.To,
	}

	start := m.opts.Clock.Now()
	defer func() { rep.BlockedFor = m.opts.Clock.Now().Sub(start) }()

	// The step opens with a committed record carrying the FULL protocol
	// step: a successor manager can re-send any in-flight command from the
	// journal alone, without re-planning.
	if jerr := m.journal(journal.Record{Kind: journal.KindStepBegin, Step: pstep}, true); jerr != nil {
		rep.Outcome = "failed"
		rep.Err = jerr.Error()
		return rep, jerr
	}

	fail := func(why string) (StepReport, error) {
		m.tel.Counter("manager.step.rollbacks").Inc()
		// The rollback decision is committed BEFORE the first rollback
		// command is sent: if the manager dies mid-rollback-wave, its
		// successor re-sends rollback (idempotent) rather than guessing.
		if jerr := m.journal(journal.Record{Kind: journal.KindRollback, Step: pstep, Detail: why}, true); jerr != nil {
			rep.Outcome = "failed"
			rep.Err = jerr.Error()
			return rep, jerr
		}
		// The rollback decision is recorded before the rollback sends tick
		// the clock, so in the merged timeline it sits causally downstream
		// of the timeout/failure that triggered it and upstream of the
		// rollback wave.
		m.flightEvent(telemetry.FlightRollback, "roll back step "+pstep.Key()+": "+why)
		rbSpan := stepSpan.Child("rollback")
		m.rollbackAll(rbSpan, participants, pstep)
		rbSpan.End()
		m.tel.Flight().AutoDump("rollback")
		m.transition(StateRunning, "[failure] / rollback")
		rep.Outcome = "rolled back"
		rep.Err = why
		if jerr := m.journal(journal.Record{Kind: journal.KindStepEnd, Step: pstep, Outcome: "rolled back", Detail: why}, false); jerr != nil {
			return rep, jerr
		}
		if cerr := ctx.Err(); cerr != nil {
			return rep, fmt.Errorf("manager: step %s aborted: %w", step.Action.ID, cerr)
		}
		return rep, &errStepFailed{edge: step, why: why}
	}

	// Reset wave, phase by phase (Fig. 2: "[creating MAP complete] /
	// send reset" puts the manager in "adapting"). A retry after a
	// rollback re-enters through "preparing", matching the figure's
	// running → preparing → adapting walk.
	if m.State() == StateRunning {
		m.transition(StatePreparing, "[failure handled] / prepare retry")
	}
	m.transition(StateAdapting, `send "reset"`)
	if jerr := m.journal(journal.Record{Kind: journal.KindWave, Wave: "reset", Step: pstep}, false); jerr != nil {
		rep.Outcome = "failed"
		rep.Err = jerr.Error()
		return rep, jerr
	}
	var resetSpan *telemetry.Span
	if stepSpan != nil {
		resetSpan = stepSpan.Child("reset", telemetry.String("phases", strconv.Itoa(len(phases))))
	}
	for _, phase := range phases {
		// Pipelined fan-out: the whole phase's resets are fired as one wave
		// (one frame per child link on a batching transport) before any ack
		// is awaited, instead of the old send-per-agent serial round.
		if err := m.sendWave(m.commandWave(protocol.MsgReset, phase, pstep), resetSpan); err != nil {
			resetSpan.SetErrorText("send failed")
			resetSpan.End()
			return fail(fmt.Sprintf("send reset wave: %v", err))
		}
		got, bad := m.await(ctx, phase, pstep, protocol.MsgResetDone, protocol.MsgResetFailed, m.opts.StepTimeout)
		if bad != "" {
			resetSpan.SetErrorText(bad)
			resetSpan.End()
			return fail(bad)
		}
		if len(got) < len(phase) {
			m.tel.Counter("manager.step.timeouts").Inc()
			m.flightEvent(telemetry.FlightTimeout,
				fmt.Sprintf("step %s: reset done timeout (got %d of %d)", pstep.Key(), len(got), len(phase)))
			resetSpan.SetErrorText("timeout")
			resetSpan.End()
			return fail(fmt.Sprintf("timeout waiting for reset done (got %d of %d)", len(got), len(phase)))
		}
		if jerr := m.journalAcks("reset", phase, got, pstep); jerr != nil {
			rep.Outcome = "failed"
			rep.Err = jerr.Error()
			return rep, jerr
		}
	}
	resetSpan.End()

	// Adapt-done barrier: agents perform their in-actions once safely
	// blocked and report.
	if jerr := m.journal(journal.Record{Kind: journal.KindWave, Wave: "adapt", Step: pstep}, false); jerr != nil {
		rep.Outcome = "failed"
		rep.Err = jerr.Error()
		return rep, jerr
	}
	adaptSpan := stepSpan.Child("adapt")
	got, bad := m.await(ctx, participants, pstep, protocol.MsgAdaptDone, protocol.MsgAdaptFailed, m.opts.StepTimeout)
	if bad != "" {
		adaptSpan.SetErrorText(bad)
		adaptSpan.End()
		return fail(bad)
	}
	if len(got) < len(participants) {
		m.tel.Counter("manager.step.timeouts").Inc()
		m.flightEvent(telemetry.FlightTimeout,
			fmt.Sprintf("step %s: adapt done timeout (got %d of %d)", pstep.Key(), len(got), len(participants)))
		adaptSpan.SetErrorText("timeout")
		adaptSpan.End()
		return fail(fmt.Sprintf("timeout waiting for adapt done (got %d of %d)", len(got), len(participants)))
	}
	adaptSpan.End()
	if jerr := m.journalAcks("adapt", participants, got, pstep); jerr != nil {
		rep.Outcome = "failed"
		rep.Err = jerr.Error()
		return rep, jerr
	}
	m.transition(StateAdapted, `receive all "adapt done"`)

	// Resume wave. Sending the first resume is the point of no return
	// (Sec. 4.4): from here the adaptation runs to completion. The PoNR is
	// committed to the journal BEFORE the first resume can reach the wire,
	// so a successor manager always knows which side of the line the crash
	// fell on: no committed PoNR record → no resume was ever sent →
	// rollback is safe; committed → drive the step to completion.
	if jerr := m.journal(journal.Record{Kind: journal.KindPoNR, Step: pstep}, true); jerr != nil {
		rep.Outcome = "failed"
		rep.Err = jerr.Error()
		return rep, jerr
	}
	m.transition(StateResuming, `send "resume"`)
	resumeSpan := stepSpan.Child("resume")
	defer resumeSpan.End()
	pending := make(map[string]bool, len(participants))
	for _, p := range participants {
		pending[p] = true
	}
	if jerr := m.journal(journal.Record{Kind: journal.KindWave, Wave: "resume", Step: pstep}, false); jerr != nil {
		rep.Outcome = "failed"
		rep.Err = jerr.Error()
		return rep, jerr
	}
	for retry := 0; retry <= m.opts.ResumeRetries; retry++ {
		if retry > 0 {
			m.tel.Counter("manager.resume.retries").Inc()
			// Backoff between resume rounds too — past the point of no
			// return the context is ignored (run to completion), so the
			// sleep cannot be aborted.
			_ = m.backoff(context.Background(), retry)
		}
		// Iterate the sorted participants slice, not the pending map:
		// send order must be deterministic for replayable exploration.
		names := m.names[:0]
		for _, p := range participants {
			if pending[p] {
				names = append(names, p)
			}
		}
		m.names = names
		// Connection-level send failures are tolerated like message loss:
		// the retry loop re-drives whoever never acked.
		_ = m.sendWave(m.commandWave(protocol.MsgResume, names, pstep), resumeSpan)
		// Past the point of no return: resume waits ignore cancellation
		// (context.Background) so the step runs to completion.
		got, _ := m.await(context.Background(), names, pstep, protocol.MsgResumeDone, 0, m.opts.StepTimeout)
		for p := range got {
			delete(pending, p)
		}
		if jerr := m.journalAcks("resume", names, got, pstep); jerr != nil {
			rep.Outcome = "failed"
			rep.Err = jerr.Error()
			return rep, jerr
		}
		if len(pending) == 0 {
			m.transition(StateResumed, `receive all "resume done"`)
			rep.Outcome = "completed"
			if jerr := m.journal(journal.Record{Kind: journal.KindStepEnd, Step: pstep, Outcome: "completed"}, false); jerr != nil {
				rep.Err = jerr.Error()
				return rep, jerr
			}
			return rep, nil
		}
		m.flightEvent(telemetry.FlightTimeout,
			fmt.Sprintf("step %s: resume done timeout (%d pending)", pstep.Key(), len(pending)))
		m.transition(StateResuming, "[failure] / retry")
	}
	m.tel.Counter("manager.step.past_no_return").Inc()
	resumeSpan.SetErrorText("resume not confirmed")
	rep.Outcome = "failed"
	rep.Err = fmt.Sprintf("resume not confirmed by %d agent(s)", len(pending))
	_ = m.journal(journal.Record{Kind: journal.KindStepEnd, Step: pstep, Outcome: "failed", Detail: rep.Err}, false)
	return rep, &errPastNoReturn{why: rep.Err}
}

// commandWave fills the manager's wave buffer with one cmd for each process
// in to, in order. The buffer is reused by the next wave: sendWave only
// borrows it, and every message holds its step by value.
func (m *Manager) commandWave(cmd protocol.MsgType, to []string, step protocol.Step) []protocol.Message {
	m.wave = m.wave[:0]
	for _, p := range to {
		m.wave = append(m.wave, protocol.Message{Type: cmd, To: p, Step: step})
	}
	return m.wave
}

// ackGroup records one aggregated coordinator ack consumed by await, so
// journalAcks can write a single record crediting the whole shard.
type ackGroup struct {
	from   string
	agents []string
}

// journalAcks records the acknowledgements of one await: first one record
// per aggregated coordinator ack (crediting every agent the shard ack
// covered — Replay credits them back individually, so Recover is
// oblivious to aggregation), then one record per remaining individually
// acknowledged process. Aggregated groups are written in arrival order
// and individuals iterate `order` (not the map), so the journal is
// deterministic under replayed schedules.
func (m *Manager) journalAcks(wave string, order []string, got map[string]bool, step protocol.Step) error {
	covered := make(map[string]bool)
	for _, g := range m.ackGroups {
		if err := m.journal(journal.Record{Kind: journal.KindAck, Wave: wave, Process: g.from, Agents: g.agents, Step: step}, false); err != nil {
			return err
		}
		for _, a := range g.agents {
			covered[a] = true
		}
	}
	m.ackGroups = m.ackGroups[:0]
	for _, p := range order {
		if !got[p] || covered[p] {
			continue
		}
		if err := m.journal(journal.Record{Kind: journal.KindAck, Wave: wave, Process: p, Step: step}, false); err != nil {
			return err
		}
	}
	return nil
}

// await waits until every process in `from` has sent a message of type
// `want` for the given step, a failure message of type `failType` arrives
// (failType 0 disables failure detection), or the timeout expires. It
// returns the set of processes heard from and a non-empty failure
// description if a failure message arrived.
//
// Agents report asynchronously — a fast agent's "adapt done" may arrive
// while the manager is still collecting "reset done" from slower agents —
// so messages of the current step that are not the awaited type are
// stashed and replayed by the next await rather than dropped.
//
// The returned set is the manager's own and is cleared by the next await:
// callers read it (and journal it) before they wait again.
func (m *Manager) await(ctx context.Context, from []string, step protocol.Step, want, failType protocol.MsgType, timeout time.Duration) (map[string]bool, string) {
	wanted, got := m.wanted, m.got
	clear(wanted)
	clear(got)
	for _, p := range from {
		wanted[p] = true
	}
	// Aggregated coordinator acks consumed by this await are grouped here
	// and journaled by the paired journalAcks call; groups a caller never
	// journals (best-effort rollback waits) are discarded by the next
	// await's reset.
	m.ackGroups = m.ackGroups[:0]

	// classify inspects one message; it returns a failure description or
	// "" and reports whether the message was consumed.
	classify := func(msg protocol.Message) (failure string, consumed bool) {
		if msg.Type == protocol.MsgMetricReport {
			// Fleet rollup reports share the manager's uplink but belong to
			// the observability plane, not the protocol: hand them to the
			// observer and never let them near the stash.
			if m.opts.Observer != nil {
				m.opts.Observer.Report(msg)
			}
			return "", true
		}
		if msg.Step.PathIndex != step.PathIndex || msg.Step.Attempt != step.Attempt {
			return "", true // stale reply from an earlier attempt
		}
		switch {
		case msg.Type == want && len(msg.Agents) > 0:
			// Aggregated ack from a fleet coordinator: one message credits
			// every covered agent (the coordinator heard each of them ack
			// individually before aggregating).
			hit := make([]string, 0, len(msg.Agents))
			for _, a := range msg.Agents {
				if wanted[a] && !got[a] {
					got[a] = true
					hit = append(hit, a)
				}
			}
			if len(hit) > 0 {
				m.ackGroups = append(m.ackGroups, ackGroup{from: msg.From, agents: hit})
				m.observeAck(step, want, msg.From, hit)
			}
			return "", true
		case msg.Type == want && wanted[msg.From]:
			got[msg.From] = true
			m.observeAck(step, want, msg.From, nil)
			return "", true
		case failType != 0 && msg.Type == failType:
			return fmt.Sprintf("%s from %s: %s", msg.Type, msg.From, msg.Error), true
		default:
			return "", false
		}
	}

	// Replay stashed messages first, keeping the rest in place.
	var stashFail string
	remaining := m.stash[:0]
	for _, msg := range m.stash {
		if stashFail != "" {
			remaining = append(remaining, msg)
			continue
		}
		fail, consumed := classify(msg)
		if fail != "" {
			stashFail = fail
			continue
		}
		if !consumed {
			remaining = append(remaining, msg)
		}
	}
	m.stash = remaining
	if stashFail != "" {
		return got, stashFail
	}

	// Scheduler-mediated transports (the deterministic explorer) receive
	// through SyncEndpoint.Recv; real transports through the inbox channel
	// with a wall-clock timer. Both paths share classify and the stash.
	if se, ok := m.ep.(transport.SyncEndpoint); ok {
		deadline := m.opts.Clock.Now().Add(timeout)
		for len(got) < len(wanted) {
			msg, status := se.Recv(ctx, deadline)
			switch status {
			case transport.RecvTimeout:
				return got, ""
			case transport.RecvClosed:
				return got, "transport closed"
			case transport.RecvAborted:
				return got, "aborted: " + ctx.Err().Error()
			}
			m.noteRecv(msg)
			fail, consumed := classify(msg)
			if fail != "" {
				return got, fail
			}
			if !consumed && len(m.stash) < m.opts.MaxStash {
				m.stash = append(m.stash, msg)
			}
		}
		return got, ""
	}

	deadline := m.timer(timeout)
	defer deadline.Stop()
	for len(got) < len(wanted) {
		select {
		case msg, ok := <-m.ep.Inbox():
			if !ok {
				return got, "transport closed"
			}
			m.noteRecv(msg)
			fail, consumed := classify(msg)
			if fail != "" {
				return got, fail
			}
			if !consumed && len(m.stash) < m.opts.MaxStash {
				m.stash = append(m.stash, msg)
			}
		case <-ctx.Done():
			return got, "aborted: " + ctx.Err().Error()
		case <-deadline.C:
			return got, ""
		}
	}
	return got, ""
}

// maxStash is the default bound of the out-of-order reply buffer
// (Options.MaxStash overrides).
const maxStash = 64

// rollbackAll commands every participant to roll the step back and waits
// briefly for acknowledgements. Rollback is idempotent on the agents, so
// best effort suffices: an agent that never received reset acknowledges
// trivially.
func (m *Manager) rollbackAll(span *telemetry.Span, participants []string, step protocol.Step) {
	_ = m.sendWave(m.commandWave(protocol.MsgRollback, participants, step), span)
	// Rollback acknowledgements are awaited even during an abort: the
	// whole point of cancelling cleanly is leaving the system safe.
	m.await(context.Background(), participants, step, protocol.MsgRollbackDone, 0, m.opts.StepTimeout)
}
