// Package agent implements the per-process adaptation agent of the safe
// adaptation protocol (paper Sec. 4.3, Fig. 1).
//
// An agent attaches to one process. It receives adaptive commands from
// the adaptation manager, drives the local process through the state
// sequence
//
//	running → resetting → safe → adapted → resuming → running
//
// and reports status back. Rollback commands return the process to
// running with the step undone (the dashed failure-handling transitions of
// Fig. 1).
package agent

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/action"
	"repro/internal/protocol"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// State is an agent state from Fig. 1.
type State int

// Agent states. Names in String() match the figure.
const (
	StateRunning State = iota + 1
	StateResetting
	StateSafe
	StateAdapted
	StateResuming
)

// String returns the figure's name for the state.
func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateResetting:
		return "resetting"
	case StateSafe:
		return "safe"
	case StateAdapted:
		return "adapted"
	case StateResuming:
		return "resuming"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// LocalProcess is the hook interface connecting an agent to the process it
// manages. Implementations adapt the actual application (a MetaSocket
// pipeline, a service, ...). All methods are called from the agent's
// single run goroutine, never concurrently.
type LocalProcess interface {
	// PreAction prepares the step without disturbing functional behavior,
	// e.g. instantiating and initializing new components (paper: the
	// pre-action).
	PreAction(step protocol.Step, ops []action.Op) error

	// Reset drives the process to its local safe state — and any local
	// share of the step's global safe condition — and blocks it there.
	// Reset returns once the process is held safely blocked. It must
	// honor ctx: when ctx is cancelled (fail-to-reset timeout), Reset
	// must abandon the attempt, restore full operation, and return
	// ctx.Err(). That is the whole contract: ctx has a deadline
	// ResetTimeout after the reset began, reports DeadlineExceeded once it
	// passes and Canceled once Reset has returned. The agent re-arms one
	// timer for every reset; context.AfterFunc on ctx starts no goroutine.
	Reset(ctx context.Context, step protocol.Step) error

	// InAction atomically alters the process structure (paper: the
	// in-action). It runs only while the process is safely blocked.
	InAction(step protocol.Step, ops []action.Op) error

	// Resume restores the process' full operation after the in-action.
	Resume(step protocol.Step) error

	// PostAction performs cleanup after resumption, e.g. destroying old
	// components (paper: the post-action).
	PostAction(step protocol.Step, ops []action.Op) error

	// Rollback undoes the step and restores full operation in the
	// pre-step structure. inActionApplied reports whether InAction had
	// completed; when false only the pre-action and blocking need
	// undoing.
	Rollback(step protocol.Step, ops []action.Op, inActionApplied bool) error
}

// Transition is one recorded state transition, for protocol-conformance
// tests against Fig. 1.
type Transition struct {
	From, To State
	// Cause is the triggering event, e.g. `receive "reset"` or
	// `send "adapt done"`.
	Cause string
	// Step identifies the adaptation step, as "pathIndex/attempt".
	Step string
	At   time.Time
}

// Options configures an agent.
type Options struct {
	// ResetTimeout bounds how long the local process may take to reach
	// its safe state before the agent reports a fail-to-reset failure
	// (Sec. 4.4). Zero means 2s.
	ResetTimeout time.Duration
	// ProcessOf maps a component name to its hosting process name; the
	// agent uses it to select its share of a step's operations.
	ProcessOf func(component string) string
	// Telemetry, when non-nil, records per-agent durations — reset
	// (time to the local safe state), in-action, resume, and the blocked
	// dwell between "reset done" and resumption (the CCS blocking window
	// of the paper) — plus failure counters. Nil disables instrumentation
	// at zero cost.
	Telemetry *telemetry.Registry
	// Clock supplies the timestamps recorded in the transition trace and
	// runs the reset deadline. Nil means the wall clock; the deterministic
	// explorer injects a virtual clock, so a fail-to-reset runs this very
	// deadline in virtual time.
	Clock transport.Clock
}

// Agent is one adaptation agent. Create with New, start with Run (usually
// in a goroutine), stop with Close.
type Agent struct {
	name string
	ep   transport.Endpoint
	proc LocalProcess
	opts Options
	tel  *telemetry.Registry // nil-safe; mirrors opts.Telemetry

	mu    sync.Mutex
	state State
	trace []Transition
	// epoch is the highest manager epoch seen; messages from lower epochs
	// are fenced (dropped). fenced counts them, for tests and diagnostics.
	epoch  uint64
	fenced int

	// current step bookkeeping (guarded by the run loop, mirrored under
	// mu for observers)
	curStep   protocol.Step
	haveStep  bool
	inActDone bool
	// curKey is curStep.Key(), formatted once when the step is adopted:
	// every transition of the step records it.
	curKey string
	// curOps is this agent's share of curStep's operations, computed once
	// when the step is adopted. Accessed only from the run goroutine.
	curOps []action.Op
	// safeSince is when the process entered its safe state for the
	// current step; the blocked-dwell histogram measures from here.
	// Accessed only from the run goroutine.
	safeSince time.Time

	// lastDone remembers the most recently completed step so that a late
	// rollback command — e.g. the manager timed out on replies that were
	// lost after a single-participant step had already resumed — can be
	// honored by genuinely undoing the step rather than acknowledging
	// vacuously.
	lastDone protocol.Step
	haveDone bool

	// The reset deadline (deadline.go), under mu: the timer, the reset it
	// is armed for, the armings whose firing has neither run nor stopped.
	rtimer transport.Timer
	rcur   *resetCtx
	rarmed int

	stop chan struct{}
	done chan struct{}
}

// New creates an agent for the named process. ep must be registered under
// the same name on the transport.
func New(name string, ep transport.Endpoint, proc LocalProcess, opts Options) (*Agent, error) {
	if name == "" {
		return nil, fmt.Errorf("agent: empty name")
	}
	if ep == nil || proc == nil {
		return nil, fmt.Errorf("agent %q: nil endpoint or process", name)
	}
	if opts.ResetTimeout <= 0 {
		opts.ResetTimeout = 2 * time.Second
	}
	if opts.ProcessOf == nil {
		return nil, fmt.Errorf("agent %q: ProcessOf mapping is required", name)
	}
	if opts.Clock == nil {
		opts.Clock = transport.SystemClock
	}
	return &Agent{
		name:  name,
		ep:    ep,
		proc:  proc,
		opts:  opts,
		tel:   opts.Telemetry,
		state: StateRunning,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}, nil
}

// Name returns the agent's process name.
func (a *Agent) Name() string { return a.name }

// State returns the agent's current state.
func (a *Agent) State() State {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.state
}

// Trace returns a copy of the recorded state transitions: the latest step
// whole, and at most maxTrace transitions of the ones before.
func (a *Agent) Trace() []Transition {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Transition, len(a.trace))
	copy(out, a.trace)
	return out
}

// Run processes manager commands until Close is called or the endpoint's
// inbox closes. Call it in a dedicated goroutine.
func (a *Agent) Run() {
	defer close(a.done)
	for {
		select {
		case <-a.stop:
			return
		case msg, ok := <-a.ep.Inbox():
			if !ok {
				return
			}
			a.handle(msg)
		}
	}
}

// Deliver hands one manager command directly to the agent's handler on
// the caller's goroutine. It is the deterministic explorer's injection
// point: the virtual scheduler steps each agent synchronously instead of
// racing goroutines over inbox channels. Deliver must not be used
// concurrently with Run.
func (a *Agent) Deliver(msg protocol.Message) {
	a.handle(msg)
}

// Close stops the agent and waits for Run to return.
func (a *Agent) Close() {
	select {
	case <-a.stop:
	default:
		close(a.stop)
	}
	<-a.done
	a.mu.Lock()
	if a.rtimer != nil {
		a.rtimer.Stop()
	}
	a.mu.Unlock()
}

// maxTrace bounds the transition trace: leaving running with this many on
// record starts it afresh. Cut only there, a trace still starts in running
// (audit.AgentTrace) and holds the latest step whole.
const maxTrace = 4096

func (a *Agent) transition(to State, cause string) {
	a.mu.Lock()
	from := a.state
	stepKey := a.curKey
	if from == StateRunning && len(a.trace) >= maxTrace {
		a.trace = a.trace[:0]
	}
	a.trace = append(a.trace, Transition{
		From:  from,
		To:    to,
		Cause: cause,
		Step:  stepKey,
		At:    a.opts.Clock.Now(),
	})
	a.state = to
	a.mu.Unlock()
	if a.tel.Flight().Enabled() {
		a.flightEvent(telemetry.FlightState, from.String()+" -> "+to.String()+" ("+stepKey+"): "+cause)
	}
}

// Epoch returns the highest manager epoch this agent has seen.
func (a *Agent) Epoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// Fenced reports how many stale-epoch messages this agent has dropped.
func (a *Agent) Fenced() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.fenced
}

func (a *Agent) send(t protocol.MsgType, step protocol.Step, errText string) {
	a.sendMsg(protocol.Message{
		Type:  t,
		To:    protocol.ManagerName,
		Step:  step,
		Error: errText,
	})
}

func (a *Agent) sendMsg(msg protocol.Message) {
	t, step := msg.Type, msg.Step
	// Replies act under — and echo — the epoch the agent is fenced to, so
	// the manager can discard answers meant for a predecessor.
	a.mu.Lock()
	msg.Epoch = a.epoch
	a.mu.Unlock()
	if a.tel.Enabled() {
		msg.Trace = protocol.TraceContext{
			TraceID: a.tel.ActiveTrace(),
			Origin:  a.name,
			Lamport: a.tel.LamportTick(),
		}
		if fr := a.tel.Flight(); fr.Enabled() {
			fr.Record(telemetry.FlightEvent{
				Kind:    telemetry.FlightSend,
				Lamport: msg.Trace.Lamport,
				TraceID: msg.Trace.TraceID,
				Node:    a.name,
				MsgType: t.String(),
				From:    a.name,
				To:      protocol.ManagerName,
				Step:    step.Key(),
			})
		}
	}
	// Transport loss is a modeled failure; nothing useful to do locally.
	_ = a.ep.Send(msg)
}

// handle processes one manager message; fenced stale-epoch traffic is
// dropped.
func (a *Agent) handle(msg protocol.Message) {
	if msg.Epoch != 0 {
		// Epoch fencing: traffic from a superseded manager incarnation is
		// dropped so a crashed manager's stragglers cannot interleave with
		// its successor's recovery. Epoch 0 (pre-journaling managers) is
		// always admitted.
		a.mu.Lock()
		if msg.Epoch < a.epoch {
			a.fenced++
			cur := a.epoch
			a.mu.Unlock()
			a.tel.Counter("agent.fenced").Inc()
			a.flightEvent(telemetry.FlightDrop,
				fmt.Sprintf("fenced %s from stale epoch %d (current %d)", msg.Type, msg.Epoch, cur))
			return
		}
		if msg.Epoch > a.epoch {
			a.epoch = msg.Epoch
		}
		a.mu.Unlock()
	}
	a.noteRecv(msg)
	//safeadaptvet:ignore-msg MsgResetDone MsgResetFailed MsgAdaptDone MsgAdaptFailed MsgResumeDone MsgRollbackDone MsgProbeAck MsgHello MsgBatch MsgMetricReport -- replies, registrations and telemetry all travel agent-to-manager; an agent dispatches only the command kinds, and batch envelopes are unpacked by the transport before delivery
	switch msg.Type {
	case protocol.MsgReset:
		a.handleReset(msg.Step, msg.Trace)
	case protocol.MsgResume:
		a.handleResume(msg.Step, msg.Trace)
	case protocol.MsgRollback:
		a.handleRollback(msg.Step, msg.Trace)
	case protocol.MsgHeartbeat:
		// Liveness only: fenced like a command, otherwise ignored.
	case protocol.MsgProbe:
		a.handleProbe(msg.Step)
	default:
		// Agents ignore anything else (e.g. stray replies).
	}
}

// handleProbe answers a recovering manager's state probe with this agent's
// ground truth. The probe's step is echoed so the manager can correlate.
func (a *Agent) handleProbe(step protocol.Step) {
	a.mu.Lock()
	info := protocol.ProbeInfo{State: a.state.String(), AdaptDone: a.inActDone}
	if a.haveStep {
		s := a.curStep
		info.Step = &s
	}
	if a.haveDone {
		d := a.lastDone
		info.LastDone = &d
	}
	a.mu.Unlock()
	a.sendMsg(protocol.Message{
		Type:  protocol.MsgProbeAck,
		To:    protocol.ManagerName,
		Step:  step,
		Probe: &info,
	})
}

// ExpireLease applies the agent self-recovery rule after the manager's
// liveness lease lapsed mid-adaptation (the manager is presumed crashed):
//
//   - Before the agent has sent "adapt done" (states resetting/safe), the
//     manager cannot have crossed the step's point of no return — the
//     first resume requires every adapt-done — so a local rollback is
//     provably safe: undo and return to running, exactly the paper's
//     before-first-resume rule.
//   - After "adapt done" (state adapted), the agent cannot know whether
//     the manager committed the point of no return before dying; rolling
//     back here could split the configuration. The agent stays safely
//     blocked (the in-doubt window of the protocol) and waits for a
//     recovering manager to resolve the step under a new epoch.
//   - From the first resume on, the step runs to completion anyway (the
//     resume path is synchronous), so there is nothing to recover.
//
// Nothing arms a lease timer: tests call this directly and the
// deterministic explorer drives it as a scheduling choice, never
// concurrently with Run.
func (a *Agent) ExpireLease() {
	a.mu.Lock()
	state := a.state
	step := a.curStep
	have := a.haveStep
	applied := a.inActDone
	a.mu.Unlock()
	if !have {
		return // not mid-step; nothing at risk
	}
	switch state {
	case StateResetting, StateSafe:
		if err := a.proc.Rollback(step, a.curOps, applied); err != nil {
			a.flightEvent(telemetry.FlightRollback,
				"lease expired but local rollback failed: "+err.Error())
			return
		}
		a.tel.Counter("agent.lease.rollbacks").Inc()
		a.flightEvent(telemetry.FlightRollback, "manager lease expired; local rollback of step "+step.Key())
		a.safeSince = time.Time{}
		a.transition(StateRunning, "[manager lease expired] / rollback")
		a.clearStep()
	case StateAdapted:
		a.tel.Counter("agent.lease.stranded").Inc()
		a.flightEvent(telemetry.FlightTimeout,
			"manager lease expired in adapted (in-doubt); holding step "+step.Key()+" for recovery")
	}
}

func sameStep(a, b protocol.Step) bool {
	return a.PathIndex == b.PathIndex && a.Attempt == b.Attempt && a.ActionID == b.ActionID
}

// sameStepAnyAttempt matches steps ignoring the attempt counter. Rollback
// commands use it: after a manager timeout the manager's attempt counter
// may be ahead of a step still in flight here (e.g. a delayed reset
// landed after the manager gave up on that attempt), and every attempt of
// a step returns to the same pre-step structure, so a rollback for any
// attempt legitimately undoes whichever attempt this agent holds.
func sameStepAnyAttempt(a, b protocol.Step) bool {
	return a.PathIndex == b.PathIndex && a.ActionID == b.ActionID
}

// localOps returns the agent's share of the step's operations.
func (a *Agent) localOps(step protocol.Step) []action.Op {
	return step.OpsFor(a.name, a.opts.ProcessOf)
}

func (a *Agent) handleReset(step protocol.Step, tc protocol.TraceContext) {
	a.mu.Lock()
	state := a.state
	cur := a.curStep
	have := a.haveStep
	a.mu.Unlock()

	if have && sameStep(cur, step) {
		// Duplicate reset (a retry after a lost reply): re-announce the
		// current status instead of redoing work.
		switch state {
		case StateSafe:
			a.send(protocol.MsgResetDone, step, "")
			return
		case StateAdapted:
			a.send(protocol.MsgAdaptDone, step, "")
			return
		}
	}
	if state != StateRunning {
		// A reset for a different step while mid-step is a protocol
		// violation; report failure so the manager can recover.
		a.send(protocol.MsgResetFailed, step, fmt.Sprintf("agent %s busy in state %s", a.name, state))
		return
	}

	key := step.Key()
	a.mu.Lock()
	a.curStep = step
	a.curKey = key
	a.haveStep = true
	a.inActDone = false
	// A fresh reset means the manager accepted the previous step's
	// outcome; its undo window is over.
	a.haveDone = false
	a.mu.Unlock()

	ops := a.localOps(step)
	a.curOps = ops

	// The agent-side step span: remote-parented under the manager span
	// that sent the reset, so the cross-node tree splices this agent's
	// work under the manager's wave.
	stepSpan := a.startSpan("agent step ", step.ActionID, step, tc)
	defer stepSpan.End()

	// Pre-action: does not interfere with functional behavior.
	if err := a.proc.PreAction(step, ops); err != nil {
		stepSpan.SetError(err)
		a.send(protocol.MsgResetFailed, step, fmt.Sprintf("pre-action: %v", err))
		return
	}

	// Resetting: drive to local safe state (Fig. 1 "resetting do: reset").
	a.transition(StateResetting, `receive "reset"`)
	resetSpan := stepSpan.Child("reset")
	resetStart := a.opts.Clock.Now()
	if err := a.reset(step); err != nil {
		// Fail-to-reset failure (Sec. 4.4): undo the pre-action and
		// return to running.
		a.tel.Counter("agent.reset.failures").Inc()
		if errors.Is(err, context.DeadlineExceeded) {
			a.flightEvent(telemetry.FlightTimeout, "fail to reset: "+err.Error())
		}
		resetSpan.SetError(err)
		resetSpan.End()
		stepSpan.SetErrorText("fail to reset")
		_ = a.proc.Rollback(step, ops, false)
		a.flightEvent(telemetry.FlightRollback, "local rollback after fail to reset, step "+step.Key())
		a.transition(StateRunning, "[fail to reset] / rollback")
		a.clearStep()
		a.send(protocol.MsgResetFailed, step, fmt.Sprintf("reset: %v", err))
		a.tel.Flight().AutoDump("failure")
		return
	}
	resetSpan.End()
	a.tel.Histogram("agent.reset.latency").Observe(a.opts.Clock.Now().Sub(resetStart))
	a.safeSince = a.opts.Clock.Now()
	a.transition(StateSafe, `[reset complete] / send "reset done"`)
	a.send(protocol.MsgResetDone, step, "")

	// In-action: performed while safely blocked.
	inActSpan := stepSpan.Child("in-action")
	inActStart := a.opts.Clock.Now()
	if err := a.proc.InAction(step, ops); err != nil {
		a.tel.Counter("agent.inaction.failures").Inc()
		inActSpan.SetError(err)
		inActSpan.End()
		stepSpan.SetErrorText("in-action failed")
		a.send(protocol.MsgAdaptFailed, step, fmt.Sprintf("in-action: %v", err))
		return // await rollback command
	}
	inActSpan.End()
	a.tel.Histogram("agent.inaction.latency").Observe(a.opts.Clock.Now().Sub(inActStart))
	a.mu.Lock()
	a.inActDone = true
	a.mu.Unlock()
	a.transition(StateAdapted, `[adaptive action complete] / send "adapt done"`)
	a.send(protocol.MsgAdaptDone, step, "")

	// Single-participant shortcut (Fig. 1): no need to stay blocked.
	if len(step.Participants) == 1 && step.Participants[0] == a.name {
		a.doResume(step, tc, "single process: proceed to resume")
	}
}

func (a *Agent) handleResume(step protocol.Step, tc protocol.TraceContext) {
	a.mu.Lock()
	state := a.state
	cur := a.curStep
	have := a.haveStep
	a.mu.Unlock()

	if !have || !sameStep(cur, step) {
		// Possibly a duplicate resume after we already finished: confirm
		// again so the manager can make progress.
		if state == StateRunning {
			a.send(protocol.MsgResumeDone, step, "")
		}
		return
	}
	if state != StateAdapted {
		if state == StateRunning {
			// Already resumed (duplicate message); re-acknowledge.
			a.send(protocol.MsgResumeDone, step, "")
		}
		return
	}
	a.doResume(step, tc, `receive "resume"`)
}

// doResume resumes the adopted step, curStep.
func (a *Agent) doResume(step protocol.Step, tc protocol.TraceContext, cause string) {
	ops := a.curOps
	span := a.startSpan("agent resume ", step.ActionID, step, tc)
	defer span.End()
	a.transition(StateResuming, cause)
	resumeStart := a.opts.Clock.Now()
	if err := a.proc.Resume(step); err != nil {
		span.SetError(err)
		// Resumption failures are reported as adapt failures; the
		// adaptation has passed the point of no return, so the manager
		// will keep retrying resume (run to completion).
		a.tel.Counter("agent.resume.failures").Inc()
		a.transition(StateAdapted, "resume failed; re-blocking")
		a.send(protocol.MsgAdaptFailed, step, fmt.Sprintf("resume: %v", err))
		return
	}
	a.tel.Histogram("agent.resume.latency").Observe(a.opts.Clock.Now().Sub(resumeStart))
	if !a.safeSince.IsZero() {
		// The CCS blocking window: how long the process was held out of
		// full operation for this step.
		a.tel.Histogram("agent.blocked.dwell").Observe(a.opts.Clock.Now().Sub(a.safeSince))
		a.safeSince = time.Time{}
	}
	a.transition(StateRunning, `[resumption complete] / send "resume done"`)
	a.send(protocol.MsgResumeDone, step, "")
	// Post-action after reporting, per Fig. 1: "sends the manager a
	// resume done message and performs the local post-action".
	if err := a.proc.PostAction(step, ops); err != nil {
		// Post-actions are cleanup; failure does not endanger safety.
		_ = err
	}
	a.mu.Lock()
	a.lastDone = step
	a.haveDone = true
	a.mu.Unlock()
	a.clearStep()
}

func (a *Agent) handleRollback(step protocol.Step, tc protocol.TraceContext) {
	// Whatever the path below, a rollback command means the adaptation
	// failed somewhere: dump this node's black box after handling it.
	defer a.tel.Flight().AutoDump("rollback")
	span := a.startSpan("agent rollback", "", step, tc)
	defer span.End()
	a.mu.Lock()
	state := a.state
	cur := a.curStep
	have := a.haveStep
	applied := a.inActDone
	done := a.lastDone
	haveDone := a.haveDone
	a.mu.Unlock()

	if !have || !sameStepAnyAttempt(cur, step) {
		if haveDone && sameStep(done, step) {
			// The step already ran to completion here (e.g. a
			// single-participant step whose replies were lost), but the
			// manager decided to roll it back: genuinely undo it —
			// re-enter the safe state, apply the inverse, resume.
			a.undoCompletedStep(step)
			return
		}
		// Nothing in flight for that step; acknowledge so the manager
		// can proceed (idempotent rollback).
		a.send(protocol.MsgRollbackDone, step, "")
		return
	}
	switch state {
	case StateResetting, StateSafe, StateAdapted, StateResuming:
		ops := a.localOps(step)
		if err := a.proc.Rollback(step, ops, applied); err != nil {
			span.SetError(err)
			a.send(protocol.MsgResetFailed, step, fmt.Sprintf("rollback: %v", err))
			return
		}
		a.tel.Counter("agent.rollbacks").Inc()
		a.flightEvent(telemetry.FlightRollback, "rolled back step "+step.Key()+" from state "+state.String())
		a.safeSince = time.Time{}
		a.transition(StateRunning, `receive "rollback"`)
		a.clearStep()
		a.send(protocol.MsgRollbackDone, step, "")
	case StateRunning:
		a.send(protocol.MsgRollbackDone, step, "")
	}
}

// undoCompletedStep reverses a step that had fully completed locally: the
// process is driven back to its safe state, the inverse operations are
// applied (via LocalProcess.Rollback with inActionApplied=true), and full
// operation resumes in the pre-step structure.
func (a *Agent) undoCompletedStep(step protocol.Step) {
	ops := a.localOps(step)
	if err := a.reset(step); err != nil {
		a.send(protocol.MsgResetFailed, step, fmt.Sprintf("undo: reset: %v", err))
		return
	}
	if err := a.proc.Rollback(step, ops, true); err != nil {
		a.send(protocol.MsgResetFailed, step, fmt.Sprintf("undo: %v", err))
		return
	}
	a.mu.Lock()
	a.haveDone = false
	a.mu.Unlock()
	a.send(protocol.MsgRollbackDone, step, "")
}

func (a *Agent) clearStep() {
	a.mu.Lock()
	a.haveStep = false
	a.inActDone = false
	a.mu.Unlock()
}
