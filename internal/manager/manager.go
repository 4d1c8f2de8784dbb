// Package manager implements the centralized adaptation manager of the
// safe adaptation protocol (paper Secs. 4.3–4.4, Fig. 2).
//
// The manager owns the whole adaptation process: it plans a minimum
// adaptation path (via the planner), then coordinates the per-process
// agents through each adaptation step, ensuring every adaptive action is
// performed in a global safe state. Timeouts detect loss-of-message and
// fail-to-reset failures; recovery follows the paper's ladder: retry the
// step once, try alternative paths, return to the source configuration,
// and finally give up and wait for user intervention.
package manager

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/action"
	"repro/internal/journal"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/protocol"
	"repro/internal/sag"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// State is a manager state from Fig. 2.
type State int

// Manager states. Names in String() match the figure.
const (
	StateRunning State = iota + 1
	StatePreparing
	StateAdapting
	StateAdapted
	StateResuming
	StateResumed
)

// String returns the figure's name for the state.
func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StatePreparing:
		return "preparing"
	case StateAdapting:
		return "adapting"
	case StateAdapted:
		return "adapted"
	case StateResuming:
		return "resuming"
	case StateResumed:
		return "resumed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Transition is one recorded manager state transition, for
// protocol-conformance tests against Fig. 2.
type Transition struct {
	From, To State
	Cause    string
	At       time.Time
}

// StepReport summarizes the execution of one adaptation step.
type StepReport struct {
	ActionID string
	From, To string // bit vectors
	Attempt  int
	// Outcome is "completed", "rolled back", or "failed".
	Outcome string
	// BlockedFor is the wall time between the first reset send and the
	// last resume done — the window in which the system ran in partial
	// operation.
	BlockedFor time.Duration
	Err        string
}

// Result is the outcome of an Execute call.
type Result struct {
	// Completed reports whether the system reached the target
	// configuration.
	Completed bool
	// ReturnedToSource reports that, after failures, the manager drove
	// the system back to the source configuration (ladder option 3).
	ReturnedToSource bool
	// Final is the configuration the system ended in.
	Final model.Config
	// Path is the path that completed, when Completed is true.
	Path sag.Path
	// Steps are per-step execution reports, in execution order,
	// including failed attempts.
	Steps []StepReport
}

// ErrUserIntervention is returned when every recovery option failed and
// the system is parked at a safe but unintended configuration (ladder
// option 4).
type ErrUserIntervention struct {
	Current model.Config
	Vector  string
	Reason  string
}

// Error implements error.
func (e *ErrUserIntervention) Error() string {
	return fmt.Sprintf("manager: user intervention required at configuration %s: %s", e.Vector, e.Reason)
}

// errStepFailed is the internal signal that one step attempt failed and
// the system was rolled back to the step's source configuration.
type errStepFailed struct {
	edge sag.Edge
	why  string
}

func (e *errStepFailed) Error() string {
	return fmt.Sprintf("step %s failed: %s", e.edge.Action.ID, e.why)
}

// Options configures a Manager.
type Options struct {
	// StepTimeout bounds each protocol wait (reset done, adapt done,
	// resume done per attempt). Zero means 2s.
	StepTimeout time.Duration
	// ResumeRetries is how many times a resume round is re-sent after
	// the point of no return before giving up (the paper lets the
	// adaptation "run to completion"; a bound keeps tests finite). Zero
	// means 10.
	ResumeRetries int
	// MaxAlternatives bounds how many alternative paths the recovery
	// ladder explores before falling back to return-to-source. Zero
	// means 4.
	MaxAlternatives int
	// ResetPhases, when non-nil, orders each step's reset wave to
	// realize global safe conditions (e.g. quiesce data-flow upstream
	// processes before downstream ones). It receives the step's action
	// and its participant processes and returns orderly phases; nil or
	// an empty result means a single simultaneous phase. participants is
	// shared by every step of the action and must not be modified.
	ResetPhases func(a action.Action, participants []string) [][]string
	// Logf, when non-nil, receives progress lines. The same lines also
	// flow into Telemetry's event stream (scope "manager"), so logs and
	// spans share one timeline.
	Logf func(format string, args ...any)
	// Telemetry, when non-nil, receives spans (adaptation → plan/step →
	// reset/adapt/resume waves), latency histograms, and the protocol's
	// failure/recovery counters. Nil disables instrumentation at zero
	// cost.
	Telemetry *telemetry.Registry
	// Clock supplies the timestamps recorded in the transition trace and
	// step reports, the deadlines of protocol waits on SyncEndpoint
	// transports, and retry backoff. Nil means the wall clock. The
	// deterministic explorer injects a logical clock so identical
	// schedules yield identical traces and a backoff waits on nothing.
	Clock transport.Clock
	// Journal, when non-nil, receives the write-ahead log of every manager
	// decision (plan, step begin, acks, point of no return, rollback). The
	// manager is fail-stop with respect to its journal: any append or sync
	// error aborts the adaptation immediately — a manager that cannot log
	// its decisions must not keep making them. A manager with a journal
	// also runs under an epoch (last journaled epoch + 1) stamped on every
	// message, and can Recover a predecessor's interrupted adaptation.
	Journal journal.Journal
	// RetryBackoff is the base delay of the jittered exponential backoff
	// inserted before each same-step retry and between resume retry
	// rounds. Zero means 50ms.
	RetryBackoff time.Duration
	// BackoffSeed seeds the jitter PRNG; the default (0) yields a fixed
	// deterministic jitter sequence per manager.
	BackoffSeed int64
	// ProbeRetries bounds how many probe rounds Recover sends before
	// giving up on an unreachable agent. Zero means 3.
	ProbeRetries int
	// Epoch, when non-zero, is adopted as this manager's fencing epoch
	// instead of deriving it from a journal replay. A hot-standby taking
	// over supplies the epoch it won the election with (its replicated
	// LastEpoch + its candidate rank), so takeover skips the snapshot
	// replay entirely and rival candidates — whose ranks are distinct —
	// can never commit the same epoch. Ignored without a Journal.
	Epoch uint64
	// MaxStash bounds the out-of-order reply buffer (agents report
	// asynchronously, so a fast agent's "adapt done" arrives while slower
	// agents' "reset done" is still being collected). Zero means 64 —
	// ample for hierarchical fleets, where the manager only ever sees
	// O(fan-out) aggregated acks per wave; a FLAT deployment needs this
	// raised to O(participants), which is itself an argument for the
	// hierarchy.
	MaxStash int
	// Observer, when non-nil, receives wave lifecycle callbacks (wave
	// sent, ack consumed) and the fleet metric reports that arrive on the
	// manager's endpoint — the hook the fleetobs.FleetState plugs into.
	// Callbacks run synchronously on the Execute goroutine; implementations
	// must be fast and must not call back into the Manager.
	Observer WaveObserver
}

// WaveObserver watches the manager's wave traffic from the outside. It
// exists for the fleet observability plane: WaveSent/WaveAcked drive the
// live wave-frontier model, and Report hands over the MsgMetricReport
// rollups that share the manager's uplink, which the manager itself
// never consumes.
type WaveObserver interface {
	// WaveSent reports one outgoing command wave (reset, resume,
	// rollback — never heartbeats or probes) and its target agents.
	WaveSent(step protocol.Step, cmd protocol.MsgType, targets []string)
	// WaveAcked reports one consumed acknowledgement. For an aggregated
	// fleet ack, agents lists the covered agents; for an individual ack
	// it is nil and from is the acknowledging agent.
	WaveAcked(step protocol.Step, ack protocol.MsgType, from string, agents []string)
	// Report hands over a metric report received on the manager's
	// endpoint.
	Report(msg protocol.Message)
}

// Manager is the adaptation manager. It is not safe for concurrent
// Execute calls.
type Manager struct {
	ep   transport.Endpoint
	plan *planner.Planner
	opts Options
	tel  *telemetry.Registry // nil-safe; mirrors opts.Telemetry

	mu      sync.Mutex
	state   State
	trace   []Transition
	details map[edge]string // see detail
	busy    bool

	// traceSeq numbers adaptations for causal trace IDs. Deterministic (a
	// counter, not randomness or wall time) so netsim replays of the same
	// seed produce byte-identical traces. Guarded by the busy serialization
	// of Execute.
	traceSeq uint64

	// stash buffers out-of-order agent replies for the current step; see
	// await in step.go. Accessed only from the Execute goroutine.
	stash []protocol.Message

	// ackGroups records the aggregated fleet-coordinator acks the current
	// await consumed, for journalAcks to write as shard-crediting records.
	// Accessed only from the Execute goroutine.
	ackGroups []ackGroup

	// wanted and got are await's two sets and deadline its timer, kept
	// between awaits — an adaptation waits some fifteen times. Accessed only
	// from the Execute goroutine.
	wanted, got map[string]bool
	deadline    *time.Timer

	// wave and names are a step's send and await buffers, refilled wave
	// by wave: sendWave and await only borrow them. Execute goroutine only.
	wave  []protocol.Message
	names []string

	// jr mirrors opts.Journal; epoch is this incarnation's fencing epoch
	// (0 when journalless), fixed at New and stamped on every send.
	jr    journal.Journal
	epoch uint64
	// attemptBase offsets step attempt numbering. Recover sets it to the
	// journal's highest recorded attempt so the continuation's attempts
	// never collide with the crashed predecessor's. Guarded by the busy
	// serialization of Execute.
	attemptBase int
	// rng drives retry-backoff jitter; guarded by the busy serialization
	// of Execute.
	rng *rand.Rand
}

// ErrBusy is returned by Execute when an adaptation is already in
// progress: the manager serializes adaptation requests, which is what
// makes the centralized global optimization of the paper sound.
var ErrBusy = errors.New("manager: an adaptation is already in progress")

// New creates a manager over the given endpoint and planner.
func New(ep transport.Endpoint, plan *planner.Planner, opts Options) (*Manager, error) {
	if ep == nil {
		return nil, errors.New("manager: nil endpoint")
	}
	if plan == nil {
		return nil, errors.New("manager: nil planner")
	}
	if opts.StepTimeout <= 0 {
		opts.StepTimeout = 2 * time.Second
	}
	if opts.ResumeRetries <= 0 {
		opts.ResumeRetries = 10
	}
	if opts.MaxAlternatives <= 0 {
		opts.MaxAlternatives = 4
	}
	if opts.Clock == nil {
		opts.Clock = transport.SystemClock
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 50 * time.Millisecond
	}
	if opts.ProbeRetries <= 0 {
		opts.ProbeRetries = 3
	}
	if opts.MaxStash <= 0 {
		opts.MaxStash = maxStash
	}
	seed := opts.BackoffSeed
	if seed == 0 {
		seed = 1
	}
	m := &Manager{
		ep:    ep,
		plan:  plan,
		opts:  opts,
		tel:   opts.Telemetry,
		state: StateRunning,
		jr:    opts.Journal,
		rng:   rand.New(rand.NewSource(seed)),

		wanted: make(map[string]bool),
		got:    make(map[string]bool),
	}
	if m.jr != nil {
		// Adopt the next epoch after everything already in the log — this
		// is what fences a crashed predecessor's in-flight messages — and
		// commit it before any message can carry it. A takeover candidate
		// supplies its election epoch explicitly and skips the replay.
		if opts.Epoch > 0 {
			m.epoch = opts.Epoch
		} else {
			recs, err := m.jr.Snapshot()
			if err != nil {
				return nil, fmt.Errorf("manager: journal snapshot: %w", err)
			}
			m.epoch = journal.Replay(recs).LastEpoch + 1
		}
		if err := m.journal(journal.Record{Kind: journal.KindEpoch}, true); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Epoch returns the manager's fencing epoch (0 when it has no journal).
func (m *Manager) Epoch() uint64 { return m.epoch }

// journal appends one record to the write-ahead log, stamped with the
// manager's epoch, and with commit set makes the log durable up to and
// including it. A nil journal makes this a no-op. Any error is fatal to
// the adaptation (fail-stop) and must be propagated by the caller, not
// ignored.
//
// The commit rule: a record is committed only where a message send, or
// Execute's return, depends on it being durable — step-begin (the reset
// wave), the point of no return (the resume wave), a rollback decision
// (the rollback wave), the epoch (every message carries it) and adapt-end
// (the caller acts on the result). Every other record rides the next of
// those commits: adapt-begin and plan ride the first step-begin, a
// step-end rides the next step-begin or adapt-end, a changed plan rides
// the step-begin that follows it. So at every send the durable log is what
// committing each record on its own would have left, and a crash can leave
// only prefixes that per-record commits could leave too — recovery meets
// no new state. Losing an unsynced step-end is the "crashed between the
// point of no return and step-end" case: the successor re-drives a wave
// the agents answer idempotently.
func (m *Manager) journal(rec journal.Record, commit bool) error {
	if m.jr == nil {
		return nil
	}
	rec.Epoch = m.epoch
	if err := m.jr.Append(rec); err != nil {
		return &errJournal{err: err}
	}
	if commit {
		if err := m.jr.Sync(); err != nil {
			return &errJournal{err: err}
		}
	}
	if m.tel.Flight().Enabled() {
		m.flightEvent(telemetry.FlightJournal, rec.String())
	}
	return nil
}

// errJournal marks a journal write failure: the fail-stop condition. It
// unwraps to the backend error so errors.Is(err, journal.ErrCrashed)
// works across the manager boundary.
type errJournal struct{ err error }

func (e *errJournal) Error() string { return "manager: journal: " + e.err.Error() }
func (e *errJournal) Unwrap() error { return e.err }

// backoff sleeps the jittered exponential delay before retry number `try`
// (1-based): an exponentially growing window with ±50% jitter, so
// synchronized retry storms decorrelate (the ladder's "retry the same
// step" no longer hammers the agents back-to-back).
func (m *Manager) backoff(ctx context.Context, try int) error {
	shift := try - 1
	if shift > 6 {
		shift = 6
	}
	base := m.opts.RetryBackoff << uint(shift)
	d := base/2 + time.Duration(m.rng.Int63n(int64(base)))
	m.tel.Counter("manager.backoffs").Inc()
	m.logf("backing off %v before retry %d", d, try)
	return m.opts.Clock.Sleep(ctx, d)
}

// timer arms the manager's one timer for d. Its users (await,
// collectProbes) run one at a time on the Execute goroutine and stop it
// when they return.
func (m *Manager) timer(d time.Duration) *time.Timer {
	m.deadline = transport.Rearm(m.deadline, d)
	return m.deadline
}

// State returns the manager's current state.
func (m *Manager) State() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// Trace returns a copy of the recorded state transitions: the latest
// adaptation whole, and at most maxTrace transitions of the ones before.
func (m *Manager) Trace() []Transition {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Transition, len(m.trace))
	copy(out, m.trace)
	return out
}

// maxTrace bounds the transition trace: leaving running with this many on
// record starts it afresh. Cut only there, a trace still starts in running
// (audit.ManagerTrace) and holds the latest adaptation whole.
const maxTrace = 4096

// maxDetails bounds the transition details a Manager keeps formatted. Every
// cause is a literal, so the edges number a few dozen.
const maxDetails = 64

func (m *Manager) transition(to State, cause string) {
	m.mu.Lock()
	from := m.state
	if from == StateRunning && len(m.trace) >= maxTrace {
		m.trace = m.trace[:0]
	}
	m.trace = append(m.trace, Transition{From: from, To: to, Cause: cause, At: m.opts.Clock.Now()})
	m.state = to
	var detail string
	if m.tel.Enabled() {
		detail = m.detail(edge{from, to, cause})
	}
	m.mu.Unlock()
	m.tel.Counter("manager.transitions").Inc()
	if m.tel.Enabled() {
		m.tel.Event("manager.state", detail)
		m.flightEvent(telemetry.FlightState, detail)
	}
}

// edge is one transition of the manager's state machine.
type edge struct {
	from, to State
	cause    string
}

// detail returns the edge's "from -> to: cause", formatted on the edge's
// first walk; past maxDetails edges it is formatted afresh. Called under
// m.mu.
func (m *Manager) detail(e edge) string {
	if d, ok := m.details[e]; ok {
		return d
	}
	d := e.from.String() + " -> " + e.to.String() + ": " + e.cause
	if len(m.details) < maxDetails {
		if m.details == nil {
			m.details = make(map[edge]string)
		}
		m.details[e] = d
	}
	return d
}

// logf emits a progress line to the Logf callback and, in the same call,
// to the telemetry event stream — one timeline for logs and traces.
func (m *Manager) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
	m.tel.Eventf("manager", format, args...)
}

// Execute carries out an adaptation request from source to target: it
// plans the MAP and realizes it step by step, each adaptive action in its
// global safe state, with the full failure-recovery ladder. On success
// the returned Result has Completed == true. An *ErrUserIntervention
// error means the system is parked at Result.Final awaiting the user.
func (m *Manager) Execute(source, target model.Config) (Result, error) {
	return m.ExecuteContext(context.Background(), source, target)
}

// ExecuteContext is Execute with cancellation. Cancellation honors the
// paper's abort semantics: between steps, and during a step before the
// first resume message, the adaptation aborts and the in-progress step is
// rolled back, leaving the system at a safe configuration; once a step is
// past its point of no return it runs to completion before the abort
// takes effect. The returned error wraps ctx.Err() on abort.
func (m *Manager) ExecuteContext(ctx context.Context, source, target model.Config) (Result, error) {
	m.mu.Lock()
	if m.busy {
		m.mu.Unlock()
		return Result{Final: source}, ErrBusy
	}
	m.busy = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.busy = false
		m.mu.Unlock()
	}()

	res := Result{Final: source}

	var span *telemetry.Span // nil telemetry formats nothing
	if m.tel.Enabled() {
		// One adaptation = one trace, across every node the protocol
		// touches: agents adopt this ID from the messages we stamp.
		if m.tel.Node() == "" {
			m.tel.SetNode(protocol.ManagerName)
		}
		m.traceSeq++
		m.tel.SetActiveTrace(fmt.Sprintf("adaptation-%d", m.traceSeq))
		span = m.tel.StartSpan("adaptation",
			telemetry.String("source", m.plan.BitVector(source)),
			telemetry.String("target", m.plan.BitVector(target)))
	}

	m.tel.Counter("manager.adaptations").Inc()
	adaptStart := m.opts.Clock.Now()
	defer func() {
		m.tel.Histogram("manager.adaptation.latency").Observe(m.opts.Clock.Now().Sub(adaptStart))
		span.End()
	}()

	m.transition(StatePreparing, `receive "adaptation request"`)
	if jerr := m.journal(journal.Record{
		Kind:   journal.KindAdaptBegin,
		Source: m.plan.BitVector(source),
		Target: m.plan.BitVector(target),
	}, false); jerr != nil {
		return res, jerr
	}
	planSpan := span.Child("plan")
	planStart := m.opts.Clock.Now()
	path, err := m.plan.Plan(source, target)
	m.tel.Histogram("manager.plan.latency").Observe(m.opts.Clock.Now().Sub(planStart))
	if err != nil {
		planSpan.SetError(err)
		planSpan.End()
		span.SetError(err)
		m.tel.Counter("manager.plan.failures").Inc()
		m.transition(StateRunning, "[planning failed]")
		_ = m.journal(journal.Record{Kind: journal.KindAdaptEnd, Outcome: "failed", Detail: "plan: " + err.Error()}, true)
		return res, fmt.Errorf("manager: plan: %w", err)
	}
	var mapText string // formatted only for the span, the log or the journal
	if planSpan != nil || m.opts.Logf != nil || m.jr != nil {
		mapText = path.String()
		m.logf("MAP: %s", mapText)
	}
	planSpan.SetAttr("map", mapText)
	planSpan.End()
	if jerr := m.journal(journal.Record{Kind: journal.KindPlan, Detail: mapText}, false); jerr != nil {
		return res, jerr
	}

	current := source
	var failedEdges []sag.Edge
	attempt := m.attemptBase

	for {
		completed, reached, reports, stepErr := m.executePath(ctx, span, path, current, &attempt)
		res.Steps = append(res.Steps, reports...)
		current = reached
		res.Final = current
		if completed {
			m.transition(StateRunning, "[adaptation complete]")
			m.tel.Counter("manager.adaptations.completed").Inc()
			res.Completed = true
			res.Path = path
			if jerr := m.journal(journal.Record{Kind: journal.KindAdaptEnd, Outcome: "completed"}, true); jerr != nil {
				return res, jerr
			}
			return res, nil
		}

		// A journal failure is the fail-stop condition: the manager stops
		// coordinating on the spot, exactly as if the process had died —
		// no rollback, no transition, no further sends. Recovery is the
		// successor manager's job.
		var je *errJournal
		if errors.As(stepErr, &je) {
			return res, stepErr
		}

		// Cancellation aborts cleanly: the failed step (if any) was
		// rolled back, so the system rests at a safe configuration.
		if errors.Is(stepErr, context.Canceled) || errors.Is(stepErr, context.DeadlineExceeded) {
			m.transition(StateRunning, "[aborted]")
			m.tel.Counter("manager.adaptations.aborted").Inc()
			span.SetErrorText("aborted")
			_ = m.journal(journal.Record{Kind: journal.KindAdaptEnd, Outcome: "aborted"}, true)
			return res, fmt.Errorf("manager: adaptation aborted at %s: %w", m.plan.BitVector(current), stepErr)
		}

		// A step failed (system is at `current`, a safe configuration).
		var sf *errStepFailed
		if !errors.As(stepErr, &sf) {
			m.transition(StateRunning, "[failure]")
			span.SetError(stepErr)
			m.tel.Flight().AutoDump("failure")
			_ = m.journal(journal.Record{Kind: journal.KindAdaptEnd, Outcome: "failed", Detail: stepErr.Error()}, true)
			return res, stepErr
		}
		failedEdges = append(failedEdges, sf.edge)

		// Ladder option 2: alternative paths from the current
		// configuration that avoid every failed edge.
		alt, altErr := m.alternative(current, target, failedEdges)
		if altErr == nil {
			m.logf("switching to alternative path: %s", alt)
			m.tel.Counter("manager.alternative_paths").Inc()
			path = alt
			if jerr := m.journal(journal.Record{Kind: journal.KindPlan, Detail: "alternative: " + alt.String()}, false); jerr != nil {
				return res, jerr
			}
			continue
		}

		// Ladder option 3: return to the source configuration.
		m.logf("no alternative path; attempting return to source")
		back, backErr := m.plan.Plan(current, source)
		if backErr == nil {
			if jerr := m.journal(journal.Record{Kind: journal.KindPlan, Detail: "return to source: " + back.String()}, false); jerr != nil {
				return res, jerr
			}
			completed, reached, reports, backStepErr := m.executePath(ctx, span, back, current, &attempt)
			res.Steps = append(res.Steps, reports...)
			current = reached
			res.Final = current
			if completed {
				m.transition(StateRunning, "[returned to source]")
				m.tel.Counter("manager.adaptations.returned_to_source").Inc()
				res.ReturnedToSource = true
				if jerr := m.journal(journal.Record{Kind: journal.KindAdaptEnd, Outcome: "returned to source"}, true); jerr != nil {
					return res, jerr
				}
				return res, nil
			}
			if errors.As(backStepErr, &je) {
				return res, backStepErr
			}
		}

		// Ladder option 4: park and wait for the user.
		m.transition(StateRunning, "[user intervention]")
		m.tel.Counter("manager.adaptations.user_intervention").Inc()
		span.SetErrorText(sf.why)
		m.tel.Flight().AutoDump("user-intervention")
		_ = m.journal(journal.Record{Kind: journal.KindAdaptEnd, Outcome: "user intervention", Detail: sf.why}, true)
		return res, &ErrUserIntervention{
			Current: current,
			Vector:  m.plan.BitVector(current),
			Reason:  sf.why,
		}
	}
}

// alternative finds the cheapest path from current to target that avoids
// all failed edges. It returns an error when none exists within the
// configured bound.
func (m *Manager) alternative(current, target model.Config, failed []sag.Edge) (sag.Path, error) {
	paths, err := m.plan.Alternatives(current, target, m.opts.MaxAlternatives+1)
	if err != nil {
		return sag.Path{}, err
	}
	for _, p := range paths {
		uses := false
		for _, e := range p.Steps {
			for _, f := range failed {
				if e.From == f.From && e.To == f.To && e.Action.ID == f.Action.ID {
					uses = true
					break
				}
			}
			if uses {
				break
			}
		}
		if !uses && len(p.Steps) > 0 {
			return p, nil
		}
	}
	return sag.Path{}, fmt.Errorf("manager: no alternative path avoids the failed steps")
}

// executePath runs the steps of path starting from `from`. Each step is
// attempted twice (the ladder's "retry the same step once more") before
// the path is abandoned. It returns whether the whole path completed, the
// configuration the system is currently in, the per-step reports, and the
// failure (an *errStepFailed, or a context error on abort) when not
// completed.
func (m *Manager) executePath(ctx context.Context, parent *telemetry.Span, path sag.Path, from model.Config, attempt *int) (bool, model.Config, []StepReport, error) {
	current := from
	reports := make([]StepReport, 0, len(path.Steps))
	for i, step := range path.Steps {
		if err := ctx.Err(); err != nil {
			return false, current, reports, err
		}
		if step.From != current {
			// Defensive: the path must be contiguous from `current`.
			return false, current, reports, fmt.Errorf("manager: path step %d starts at %s but system is at %s",
				i, m.plan.BitVector(step.From), m.plan.BitVector(current))
		}
		var lastErr error
		succeeded := false
		for try := 0; try < 2; try++ { // initial attempt + one retry
			*attempt++
			if try > 0 {
				m.tel.Counter("manager.step.retries").Inc()
				// Jittered exponential backoff before the same-step retry:
				// give a slow agent time to settle instead of hammering it
				// back-to-back.
				if err := m.backoff(ctx, try); err != nil {
					return false, current, reports, err
				}
			}
			rep, err := m.executeStep(ctx, parent, step, i, *attempt)
			reports = append(reports, rep)
			if err == nil {
				succeeded = true
				break
			}
			lastErr = err
			// Journal failure = fail-stop; stop coordinating immediately.
			var je *errJournal
			if errors.As(err, &je) {
				return false, current, reports, err
			}
			m.logf("step %s attempt %d failed: %v", step.Action.ID, try+1, err)
			// executeStep guarantees the system is back at step.From
			// when it returns an error (rollback before first resume) —
			// except for pastPointOfNoReturn errors, which propagate.
			var pnr *errPastNoReturn
			if errors.As(err, &pnr) {
				return false, step.From, reports, err
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return false, current, reports, err
			}
		}
		if !succeeded {
			return false, current, reports, &errStepFailed{edge: step, why: lastErr.Error()}
		}
		current = step.To
		if i < len(path.Steps)-1 {
			m.transition(StatePreparing, "[more adaptation steps remaining] / prepare for the next step")
		}
	}
	return true, current, reports, nil
}

// errPastNoReturn signals that a failure happened after the first resume
// message was sent but resumption could not be confirmed within the retry
// budget: the paper requires the adaptation to run to completion, so the
// manager cannot roll back; it surfaces the inconsistency instead.
type errPastNoReturn struct{ why string }

func (e *errPastNoReturn) Error() string {
	return "manager: failure past the point of no return: " + e.why
}
