package manager

import (
	"context"
	"fmt"

	"repro/internal/journal"
	"repro/internal/protocol"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Recover resumes the work of a crashed predecessor manager. It replays
// the journal this manager was created over, and if the log shows an
// adaptation that began but never ended:
//
//  1. probes every participant of the in-flight step for its ground-truth
//     local state (the probes carry this manager's fresh epoch, fencing
//     the predecessor's stragglers in the same round trip);
//  2. resolves the in-flight step by the journal's committed decisions —
//     a committed point of no return means the step MUST complete (the
//     resume wave is re-driven; agents that already resumed re-ack
//     idempotently), a committed rollback decision or no PoNR record
//     means rollback is safe and is (re-)sent to everyone (idempotent);
//  3. drives the remaining distance from the recovered configuration to
//     the journaled target with a normal Execute under the new epoch.
//
// Recover returns the continuation's Result. When the journal shows no
// in-flight adaptation it returns a zero Result and nil error. It must be
// called before any Execute on this manager, on a manager created with
// the predecessor's (reopened) journal.
func (m *Manager) Recover(ctx context.Context) (Result, error) {
	if m.jr == nil {
		return Result{}, fmt.Errorf("manager: recover: no journal configured")
	}
	recs, err := m.jr.Snapshot()
	if err != nil {
		return Result{}, fmt.Errorf("manager: recover: journal snapshot: %w", err)
	}
	return m.RecoverState(ctx, journal.Replay(recs))
}

// RecoverState is Recover starting from an already-replayed recovery
// state. It is the hot-takeover entry point: a standby that has been
// applying the leader's streamed records holds this state continuously,
// so the successor manager skips the snapshot replay — the cold path's
// dominant cost — and goes straight to probing and resolution. The state
// must summarize the same log this manager's journal continues (Recover
// passes its own journal's replay; a standby passes its applier's state).
func (m *Manager) RecoverState(ctx context.Context, st journal.State) (Result, error) {
	if m.jr == nil {
		return Result{}, fmt.Errorf("manager: recover: no journal configured")
	}
	if !st.InFlight {
		// Even with nothing to recover, continue attempt numbering above
		// the log's history so a re-submitted request can't reuse a spent
		// attempt number.
		m.attemptBase = st.LastAttempt
		m.logf("recovery: journal shows no in-flight adaptation (epoch %d)", m.epoch)
		return Result{}, nil
	}
	reg := m.plan.Registry()
	current, err := reg.ParseBitVector(st.Current)
	if err != nil {
		return Result{}, fmt.Errorf("manager: recover: bad current vector %q: %w", st.Current, err)
	}
	target, err := reg.ParseBitVector(st.Target)
	if err != nil {
		return Result{}, fmt.Errorf("manager: recover: bad target vector %q: %w", st.Target, err)
	}
	m.logf("recovery: epoch %d resuming interrupted adaptation %s -> %s (at %s, step in flight: %v, past PoNR: %v, rollback decided: %v)",
		m.epoch, st.Source, st.Target, st.Current, st.Step != nil, st.PastPoNR, st.RollbackDecided)

	m.mu.Lock()
	if m.busy {
		m.mu.Unlock()
		return Result{}, ErrBusy
	}
	m.busy = true
	m.mu.Unlock()

	if m.tel.Enabled() {
		if m.tel.Node() == "" {
			m.tel.SetNode(protocol.ManagerName)
		}
		m.traceSeq++
		m.tel.SetActiveTrace(fmt.Sprintf("recovery-%d-%d", m.epoch, m.traceSeq))
	}
	m.tel.Counter("manager.recoveries").Inc()
	recStart := m.opts.Clock.Now()
	span := m.tel.StartSpan("recovery",
		telemetry.String("current", st.Current),
		telemetry.String("target", st.Target))

	resolvedVector, rerr := m.resolveInFlightStep(span, st)
	m.tel.Histogram("manager.recovery.latency").Observe(m.opts.Clock.Now().Sub(recStart))
	span.End()

	m.mu.Lock()
	m.busy = false
	m.mu.Unlock()

	if rerr != nil {
		return Result{}, rerr
	}
	if resolvedVector != "" {
		current, err = reg.ParseBitVector(resolvedVector)
		if err != nil {
			return Result{}, fmt.Errorf("manager: recover: bad resolved vector %q: %w", resolvedVector, err)
		}
	}

	// Continue attempt numbering above everything the predecessor (or any
	// earlier incarnation) journaled, so a step attempt identifies one
	// protocol exchange across the whole adaptation's lifetime — agents'
	// duplicate detection and the explorer's point-of-no-return ledger both
	// key on it.
	m.attemptBase = st.LastAttempt

	// The interrupted adaptation is closed in the journal; the remaining
	// distance runs as a fresh adaptation under the new epoch.
	if jerr := m.journal(journal.Record{
		Kind:    journal.KindAdaptEnd,
		Outcome: "recovered",
		Detail:  fmt.Sprintf("at %s, continuing to %s under epoch %d", reg.BitVector(current), st.Target, m.epoch),
	}, true); jerr != nil {
		return Result{}, jerr
	}
	if reg.BitVector(current) == st.Target {
		m.logf("recovery: already at target %s", st.Target)
		return Result{Completed: true, Final: current}, nil
	}
	return m.ExecuteContext(ctx, current, target)
}

// resolveInFlightStep settles the step (if any) the predecessor died in
// the middle of, and returns the configuration vector the system is at
// afterwards ("" means st.Current is already right). The caller holds the
// busy flag.
func (m *Manager) resolveInFlightStep(span *telemetry.Span, st journal.State) (string, error) {
	probeStep := st.Step
	if probeStep == nil {
		// Crashed between steps: nothing to settle, but if any step ever
		// began, probe its participants anyway — the freshness check below
		// is what stops a stale takeover candidate from re-driving steps a
		// rival already completed, and the probe round fences the old epoch
		// in the same trip.
		probeStep = st.LastStep
	}
	if probeStep == nil {
		// An adaptation began but no step ever started, so the log names no
		// participants. Blind re-driving is still unsafe — a rival
		// incarnation may have run the whole adaptation from this same cut —
		// so probe the entire process roster with a synthetic step. A fenced
		// candidate gets no answers; a stale one sees attempts it never
		// journaled; a genuinely fresh recovery pays one extra round trip
		// and fences every agent before its first wave.
		roster := m.plan.Registry().Processes()
		if len(roster) == 0 {
			return "", nil
		}
		probeStep = &protocol.Step{Participants: roster}
	}
	step := *probeStep
	m.stash = m.stash[:0]

	// Probe for ground truth — and to fence the old epoch everywhere.
	probes, err := m.probeAll(span, step)
	if err != nil {
		m.transition(StatePreparing, "recovery: probing participants")
		m.transition(StateRunning, "[failure] (recovery probe)")
		cur, _ := m.plan.Registry().ParseBitVector(st.Current)
		return "", &ErrUserIntervention{
			Current: cur,
			Vector:  st.Current,
			Reason:  fmt.Sprintf("recovery: %v", err),
		}
	}
	for _, p := range step.Participants {
		info := probes[p]
		m.logf("recovery: probe %s: state=%s adaptDone=%v", p, info.State, info.AdaptDone)
	}

	// Freshness check. Every attempt ever driven is journaled before its
	// reset wave is sent, so a log that is a true prefix of history can
	// never trail its own agents: an agent reporting work on a LATER
	// attempt than this state's LastAttempt proves a rival incarnation
	// already recovered past this cut. Re-driving from here would re-apply
	// in-actions over a configuration that has moved on — the candidate
	// must stand down instead.
	if who, attempt := staleEvidence(step, probes, st.LastAttempt); who != "" {
		m.tel.Counter("manager.recovery.stale_aborts").Inc()
		m.logf("recovery: state is stale (%s reports attempt %d > journaled last attempt %d); standing down", who, attempt, st.LastAttempt)
		m.transition(StatePreparing, "recovery: probing participants")
		m.transition(StateRunning, "[failure] (stale recovery state)")
		cur, _ := m.plan.Registry().ParseBitVector(st.Current)
		return "", &ErrUserIntervention{
			Current: cur,
			Vector:  st.Current,
			Reason: fmt.Sprintf("recovery: stale state: %s reports step attempt %d past this log's last attempt %d; a rival incarnation already drove on",
				who, attempt, st.LastAttempt),
		}
	}

	if st.Step == nil {
		return "", nil // between steps and the log is fresh; nothing to settle
	}

	forward := st.PastPoNR && !st.RollbackDecided
	if !forward && !st.RollbackDecided && resumeEvidence(probes, step) {
		// The recovery state says "no point of no return committed", but an
		// agent's ground truth says it already received (or finished) a
		// resume for this step — the state is a stale cut of the leader's
		// log (a takeover from a standby whose stream lagged the PoNR
		// record). Rolling back now would undo an in-action some process
		// has already resumed on, so the decision flips forward. Sound
		// because probeAll fenced every participant to this epoch before we
		// read the evidence: no old-epoch straggler can add resumes later.
		m.tel.Counter("manager.recovery.probe_evidence_forward").Inc()
		m.logf("recovery: probe evidence shows a resume was delivered; driving step %s forward", step.Key())
		if jerr := m.journal(journal.Record{Kind: journal.KindPoNR, Step: step, Detail: "decided by recovery from probe evidence"}, true); jerr != nil {
			return "", jerr
		}
		forward = true
	}

	if forward {
		// The committed point of no return means the predecessor verified
		// every adapt-done, so each participant is either still safely
		// blocked in adapted (self-recovery never rolls back past
		// adapt-done) or has already resumed. Re-drive the resume wave;
		// re-acks are idempotent.
		m.transition(StatePreparing, "recovery: step past point of no return")
		m.transition(StateAdapting, "recovery: confirming in-actions")
		m.transition(StateAdapted, "recovery: all in-actions committed")
		m.transition(StateResuming, `recovery: send "resume"`)
		if err := m.recoverResume(span, step); err != nil {
			m.transition(StateRunning, "failure past the point of no return surfaces")
			cur, _ := m.plan.Registry().ParseBitVector(step.FromVector)
			_ = m.journal(journal.Record{Kind: journal.KindStepEnd, Step: step, Outcome: "failed", Detail: err.Error()}, true)
			return "", &ErrUserIntervention{
				Current: cur,
				Vector:  step.FromVector,
				Reason:  fmt.Sprintf("recovery: %v", err),
			}
		}
		m.transition(StateResumed, `recovery: receive all "resume done"`)
		if jerr := m.journal(journal.Record{Kind: journal.KindStepEnd, Step: step, Outcome: "completed", Detail: "completed by recovery"}, true); jerr != nil {
			return "", jerr
		}
		return step.ToVector, nil
	}

	// No committed PoNR (or an explicitly committed rollback decision): no
	// resume can have been sent, so rollback is safe — and idempotent for
	// agents that already rolled back locally on lease expiry.
	m.transition(StatePreparing, "recovery: rolling back in-flight step")
	m.transition(StateAdapting, "recovery: re-issuing rollback")
	if !st.RollbackDecided {
		if jerr := m.journal(journal.Record{Kind: journal.KindRollback, Step: step, Detail: "decided by recovery"}, true); jerr != nil {
			return "", jerr
		}
	}
	m.tel.Counter("manager.step.rollbacks").Inc()
	m.flightEvent(telemetry.FlightRollback, "recovery: roll back step "+step.Key())
	rbSpan := span.Child("recovery rollback")
	m.rollbackAll(rbSpan, step.Participants, step)
	rbSpan.End()
	m.transition(StateRunning, "[failure] / rollback")
	if jerr := m.journal(journal.Record{Kind: journal.KindStepEnd, Step: step, Outcome: "rolled back", Detail: "rolled back by recovery"}, true); jerr != nil {
		return "", jerr
	}
	return step.FromVector, nil
}

// staleEvidence reports the first participant (in step order, for
// determinism) whose probe shows work on a step attempt later than the
// recovery state's LastAttempt — either the step it currently holds or the
// last step it completed — along with that attempt number. Attempt numbers
// are unique across manager incarnations of one adaptation, so this can
// only happen when the recovery state is a stale cut a rival incarnation
// has already driven past.
func staleEvidence(step protocol.Step, probes map[string]*protocol.ProbeInfo, lastAttempt int) (string, int) {
	for _, p := range step.Participants {
		info := probes[p]
		if info == nil {
			continue
		}
		if s := info.Step; s != nil && s.Attempt > lastAttempt {
			return p, s.Attempt
		}
		if d := info.LastDone; d != nil && d.Attempt > lastAttempt {
			return p, d.Attempt
		}
	}
	return "", 0
}

// resumeEvidence reports whether any probe proves a resume for step
// reached some participant: the agent is mid-resume, or its last completed
// step IS this step (it resumed and went back to running). Either can only
// follow a committed point of no return on the dead leader's own log, even
// when the recovery state — replayed from a lagging standby's cut — does
// not contain that record.
func resumeEvidence(probes map[string]*protocol.ProbeInfo, step protocol.Step) bool {
	for _, info := range probes {
		if info == nil {
			continue
		}
		if info.State == "resuming" {
			if info.Step != nil && info.Step.PathIndex == step.PathIndex && info.Step.ActionID == step.ActionID {
				return true
			}
		}
		if d := info.LastDone; d != nil && d.PathIndex == step.PathIndex && d.ActionID == step.ActionID {
			return true
		}
	}
	return false
}

// recoverResume re-drives the resume wave of a step whose point of no
// return was committed, until every participant confirms or the retry
// budget runs out.
func (m *Manager) recoverResume(span *telemetry.Span, step protocol.Step) error {
	pending := make(map[string]bool, len(step.Participants))
	for _, p := range step.Participants {
		pending[p] = true
	}
	resumeSpan := span.Child("recovery resume")
	defer resumeSpan.End()
	for retry := 0; retry <= m.opts.ResumeRetries; retry++ {
		if retry > 0 {
			m.tel.Counter("manager.resume.retries").Inc()
			_ = m.backoff(context.Background(), retry)
		}
		names := make([]string, 0, len(pending))
		wave := make([]protocol.Message, 0, len(pending))
		for _, p := range step.Participants {
			if !pending[p] {
				continue
			}
			names = append(names, p)
			//safeadaptvet:allow journalsend -- re-drives a resume wave whose KindPoNR record was committed by the crashed predecessor; Recover gates this path on st.PastPoNR, which is read back from that committed record
			wave = append(wave, protocol.Message{Type: protocol.MsgResume, To: p, Step: step})
		}
		_ = m.sendWave(wave, resumeSpan)
		got, _ := m.await(context.Background(), names, step, protocol.MsgResumeDone, 0, m.opts.StepTimeout)
		for p := range got {
			delete(pending, p)
		}
		if jerr := m.journalAcks("resume", names, got, step); jerr != nil {
			return jerr
		}
		if len(pending) == 0 {
			return nil
		}
	}
	return fmt.Errorf("resume not confirmed by %d agent(s) after recovery", len(pending))
}

// probeAll sends MsgProbe to every participant of step and collects their
// ProbeInfo reports, retrying up to ProbeRetries rounds. Non-probe
// messages received meanwhile (stragglers addressed to the predecessor's
// waits) are discarded.
func (m *Manager) probeAll(span *telemetry.Span, step protocol.Step) (map[string]*protocol.ProbeInfo, error) {
	probeSpan := span.Child("probe")
	defer probeSpan.End()
	infos := make(map[string]*protocol.ProbeInfo, len(step.Participants))
	for round := 0; round < m.opts.ProbeRetries; round++ {
		if round > 0 {
			_ = m.backoff(context.Background(), round)
		}
		for _, p := range step.Participants {
			if infos[p] != nil {
				continue
			}
			_ = m.send(protocol.Message{Type: protocol.MsgProbe, To: p, Step: step}, probeSpan)
		}
		m.collectProbes(step, infos, len(step.Participants))
		if len(infos) == len(step.Participants) {
			return infos, nil
		}
	}
	missing := make([]string, 0)
	for _, p := range step.Participants {
		if infos[p] == nil {
			missing = append(missing, p)
		}
	}
	return nil, fmt.Errorf("probe unanswered by %v", missing)
}

// collectProbes drains the endpoint until `want` probe acks for step have
// arrived or the step timeout expires, filling infos keyed by sender.
func (m *Manager) collectProbes(step protocol.Step, infos map[string]*protocol.ProbeInfo, want int) {
	accept := func(msg protocol.Message) {
		m.noteRecv(msg)
		if msg.Type == protocol.MsgMetricReport {
			// Rollup reports keep flowing during recovery; route them to the
			// observability plane instead of dropping them.
			if m.opts.Observer != nil {
				m.opts.Observer.Report(msg)
			}
			return
		}
		if msg.Type != protocol.MsgProbeAck || msg.Probe == nil {
			return // straggler addressed to the crashed predecessor
		}
		if msg.Step.PathIndex != step.PathIndex || msg.Step.Attempt != step.Attempt {
			return
		}
		if infos[msg.From] == nil {
			infos[msg.From] = msg.Probe
		}
	}

	if se, ok := m.ep.(transport.SyncEndpoint); ok {
		deadline := m.opts.Clock.Now().Add(m.opts.StepTimeout)
		for len(infos) < want {
			msg, status := se.Recv(context.Background(), deadline)
			if status != transport.RecvOK {
				return
			}
			accept(msg)
		}
		return
	}

	timer := m.timer(m.opts.StepTimeout)
	defer timer.Stop()
	for len(infos) < want {
		select {
		case msg, ok := <-m.ep.Inbox():
			if !ok {
				return
			}
			accept(msg)
		case <-timer.C:
			return
		}
	}
}
