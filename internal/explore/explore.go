// Package explore model-checks the safe adaptation protocol by
// deterministic simulation: the manager and every agent run on a single
// goroutine against a virtual transport with a logical clock, and a
// scheduler enumerates message-delivery interleavings and injected
// failures (message loss, manager timeouts, fail-to-reset, agent
// crashes) as explicit choice points.
//
// Four drivers walk the choice tree. Explore performs exhaustive
// bounded DFS: every alternative within the first Depth choice points is
// tried, and choices beyond the bound follow the deterministic happy
// path. Fuzz samples random schedules from a seed. CrashSweep kills the
// manager process at every journal record boundary (and mid-fsync) and
// checks that the successor's cold recovery preserves every safety
// property. ChurnSweep runs the leader through the hot-standby
// replication plane (internal/replica) instead and kills it at every
// boundary while one — or two racing — standbys take over via
// RecoverState, checking the same properties plus replica divergence and
// epoch fencing. Any schedule — found by any driver — replays exactly
// via Replay.
//
// Models with FleetFanout set run the same protocol through the
// hierarchical fleet control plane (internal/fleet): commands fan out as
// batched envelopes through coordinators, acks aggregate on the way up,
// every relay hop is its own scheduling choice, and CrashSweep
// additionally kills each coordinator at every journal record boundary
// to check that its stateless restart preserves safety. FleetModel is
// the canonical 1-root, 2-coordinator, 4-agent instance.
//
// At every explored state the safety properties of the paper are
// checked:
//
//   - whenever all processes run unblocked, the ground-truth
//     configuration satisfies every dependency invariant;
//   - no critical communication segment is cut: every emitted packet is
//     decodable by its receiver (internal/ccs is the oracle);
//   - the manager never sends a rollback for a step attempt after that
//     attempt's first resume (the point of no return);
//   - no deadlock: a successful adaptation leaves every process
//     unblocked and every agent running;
//   - every terminal state passes the internal/audit conformance checks
//     against the paper's Figs. 1–2, and the manager's belief about the
//     final configuration matches the ground truth.
package explore

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/action"
	"repro/internal/invariant"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// Flow is one application-level data-flow link between processes.
type Flow struct {
	From, To string
}

// Model describes the adaptive system under exploration: the structural
// model the planner needs plus the application-level communication model
// the CCS check needs.
type Model struct {
	// Invariants carries the registry and the dependency invariants.
	Invariants *invariant.Set
	// Actions are the adaptive actions available to the planner.
	Actions []action.Action
	// Source and Target bound the adaptation request to explore.
	Source, Target model.Config
	// Flows are the application data-flow links packets travel on.
	Flows []Flow
	// Encodes maps an encoder component to the key its packets carry.
	Encodes map[string]string
	// Decodes maps a decoder component to the keys it can decode.
	Decodes map[string][]string
	// ResetPhases is the step reset-phase policy handed to the manager
	// (the global safe condition). Nil means one simultaneous phase.
	ResetPhases func(a action.Action, participants []string) [][]string
	// FleetFanout, when positive, interposes the hierarchical fleet
	// control plane between the manager and the agents: the processes
	// become the leaves of a fleet.Topology with this fan-out, wave
	// commands travel as batched envelopes through the coordinators, and
	// the manager sees their aggregated acks. Every coordinator hop is a
	// scheduling choice, and CrashSweep additionally kills each
	// coordinator at every journal record boundary. Zero keeps the
	// classic flat deployment.
	FleetFanout int
}

// ModelOf builds the exploration model of a compiled spec. When the spec
// declares codec tags and a dataflow, packets flow down the dataflow:
// each upstream process sends to the next, and the last sends to every
// other process, in registry order — so the explorer also checks that no
// critical communication segment is cut. Otherwise the model carries no
// traffic and exploration checks the protocol-level properties alone. A
// declared dataflow also sets the step reset-phase policy.
func ModelOf(c *spec.Compiled) *Model {
	m := &Model{
		Invariants: c.Invariants,
		Actions:    c.Actions,
		Source:     c.Source,
		Target:     c.Target,
	}
	if len(c.Dataflow) == 0 {
		return m
	}
	m.ResetPhases = func(_ action.Action, participants []string) [][]string {
		return c.ResetPhases(participants)
	}
	if len(c.Encodes) == 0 {
		return m
	}
	last := c.Dataflow[len(c.Dataflow)-1]
	for i := 1; i < len(c.Dataflow); i++ {
		m.Flows = append(m.Flows, Flow{From: c.Dataflow[i-1], To: c.Dataflow[i]})
	}
	for _, p := range c.Registry.Processes() {
		if !slices.Contains(c.Dataflow, p) {
			m.Flows = append(m.Flows, Flow{From: last, To: p})
		}
	}
	m.Encodes, m.Decodes = c.Encodes, c.Decodes
	return m
}

// PaperModel returns the paper's DES-64 → DES-128 video multicast case
// study as an exploration model.
func PaperModel() (*Model, error) {
	c, err := spec.PaperSystem().Compile()
	if err != nil {
		return nil, err
	}
	return ModelOf(c), nil
}

// Options configures an Explorer.
type Options struct {
	// Depth bounds the DFS: alternatives are explored only at the first
	// Depth choice points; beyond it every choice takes the deterministic
	// happy path. Zero means 8.
	Depth int
	// MaxFaults is the failure-injection budget per execution. Zero means
	// 1; negative disables fault injection.
	MaxFaults int
	// MaxPackets is the application-packet emission budget per execution.
	// Zero means 2; negative disables app traffic.
	MaxPackets int
	// MaxSchedules caps the number of executions per driver run. Zero
	// means 300000.
	MaxSchedules int
	// MaxEvents is the per-execution livelock guard. Zero means 20000.
	MaxEvents int
	// MaxViolations stops a driver after this many violations. Zero
	// means 10.
	MaxViolations int
	// StepTimeout is the manager's (logical) per-wait timeout. Zero
	// means 1s of virtual time.
	StepTimeout time.Duration
	// ResumeRetries bounds the manager's post-point-of-no-return resume
	// rounds. Zero means 2.
	ResumeRetries int
	// DisableDrain disables the virtual processes' reset-time drain of
	// in-flight packets — the mutation hook: it breaks the global safe
	// condition, and the explorer must then find a CCS violation.
	DisableDrain bool
	// Telemetry, when non-nil, receives explore.states,
	// explore.schedules and explore.violations counters.
	Telemetry *telemetry.Registry
}

// Violation is one safety-property violation, with the schedule that
// reproduces it.
type Violation struct {
	// Kind classifies the violated property: "invariant", "ccs",
	// "rollback-after-resume", "deadlock", "belief", "audit",
	// "livelock", "replica-divergence" (a hot standby's streamed state
	// differs from a replay of the leader's durable log), "fencing" (a
	// lower-epoch takeover candidate completed work past the agents'
	// fence).
	Kind string
	// Detail describes the violation.
	Detail string
	// Schedule is the minimal choice sequence reproducing the violation
	// (trailing happy-path zeros stripped); feed it to Replay.
	Schedule []int
	// Trace is the scheduler's event log up to the violation.
	Trace []string
}

// String renders the violation with its reproducing schedule.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s (schedule %v)", v.Kind, v.Detail, v.Schedule)
}

// Report summarizes a driver run.
type Report struct {
	// States is the number of scheduling decisions explored.
	States int
	// Schedules is the number of distinct executions run.
	Schedules int
	// Crashes is the number of manager deaths injected (and recovered
	// from) across all executions; nonzero only for CrashSweep and
	// ChurnSweep runs.
	Crashes int
	// Takeovers is the number of hot standby promotions performed across
	// all executions; nonzero only for ChurnSweep runs.
	Takeovers int
	// CoordCrashes is the number of fleet coordinator deaths injected
	// (each instantly replaced by a stateless successor); nonzero only
	// for CrashSweep runs over a fleet model.
	CoordCrashes int
	// Violations are the safety violations found.
	Violations []Violation
	// Truncated reports that MaxSchedules or MaxViolations cut the run
	// short.
	Truncated bool
}

// Explorer explores one adaptation request of one model.
type Explorer struct {
	m    *Model
	opts Options
	plan *planner.Planner
	tel  *telemetry.Registry
}

// New builds an explorer, validating the model by constructing one
// virtual execution.
func New(m *Model, opts Options) (*Explorer, error) {
	if m == nil || m.Invariants == nil {
		return nil, fmt.Errorf("explore: nil model")
	}
	if opts.Depth <= 0 {
		opts.Depth = 8
	}
	if opts.MaxFaults == 0 {
		opts.MaxFaults = 1
	}
	if opts.MaxPackets == 0 {
		opts.MaxPackets = 2
	}
	if opts.MaxSchedules <= 0 {
		opts.MaxSchedules = 300000
	}
	if opts.MaxEvents <= 0 {
		opts.MaxEvents = 20000
	}
	if opts.MaxViolations <= 0 {
		opts.MaxViolations = 10
	}
	if opts.StepTimeout <= 0 {
		opts.StepTimeout = time.Second
	}
	if opts.ResumeRetries <= 0 {
		opts.ResumeRetries = 2
	}
	plan, err := planner.New(m.Invariants, m.Actions)
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	x := &Explorer{m: m, opts: opts, plan: plan, tel: opts.Telemetry}
	if _, err := newExecution(x, &dfsChooser{}); err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	return x, nil
}

// Explore runs the exhaustive bounded DFS over the choice tree and
// returns the exploration report.
func (x *Explorer) Explore() (*Report, error) {
	rep := &Report{}
	var prefix []int
	for {
		ch := &dfsChooser{prefix: prefix}
		if err := x.runOne(ch, rep); err != nil {
			return rep, err
		}
		if len(rep.Violations) >= x.opts.MaxViolations {
			rep.Truncated = true
			return rep, nil
		}
		// Backtrack: bump the deepest in-bound choice point that still
		// has an untried alternative.
		d := len(ch.seq)
		if d > x.opts.Depth {
			d = x.opts.Depth
		}
		for d--; d >= 0; d-- {
			if ch.seq[d]+1 < ch.counts[d] {
				break
			}
		}
		if d < 0 {
			return rep, nil
		}
		prefix = append(append([]int(nil), ch.seq[:d]...), ch.seq[d]+1)
		if rep.Schedules >= x.opts.MaxSchedules {
			rep.Truncated = true
			return rep, nil
		}
	}
}

// Fuzz runs n random schedules derived from seed. The same seed always
// produces the same schedules, and every violation carries its exact
// choice sequence for Replay.
func (x *Explorer) Fuzz(seed int64, n int) (*Report, error) {
	rep := &Report{}
	for i := 0; i < n && i < x.opts.MaxSchedules; i++ {
		ch := &randChooser{rng: rand.New(rand.NewSource(seed + int64(i)))}
		if err := x.runOne(ch, rep); err != nil {
			return rep, err
		}
		if len(rep.Violations) >= x.opts.MaxViolations {
			rep.Truncated = true
			return rep, nil
		}
	}
	return rep, nil
}

// crashPlan configures crash injection for one execution: the manager
// process dies at the after-th journal record boundary (its next append
// fails), or — with midSync — during the fsync that follows that
// boundary, so the unsynced tail is lost as if it never hit the disk.
// With coord set, the named fleet coordinator dies at that boundary
// instead (and restarts stateless), while the manager lives on.
type crashPlan struct {
	after   int
	midSync bool
	coord   string
}

// CrashSweep model-checks manager-crash recovery. It first measures how
// many journal records the fault-free happy path writes, then for every
// record boundary k up to that count it runs:
//
//   - the happy-path schedule with the manager killed at boundary k;
//   - the same schedule with the crash falling mid-fsync instead, so the
//     unsynced tail is torn away;
//   - perPoint fuzzed schedules (derived from seed) with the kill at
//     boundary k, layering message loss, timeouts, fail-to-reset and
//     lease expiry over the crash.
//
// Unlike agent crashes — which the paper's failure model excludes —
// manager crashes are exactly what the durable journal claims to
// survive, so every safety property (dependency invariants, CCS, no
// rollback after the point of no return, deadlock, belief, Fig. 1–2
// conformance of every incarnation) stays armed through the crash and
// the successor's recovery.
func (x *Explorer) CrashSweep(seed int64, perPoint int) (*Report, error) {
	rep := &Report{}
	// Measure the happy path's journal length; it must itself be clean.
	probe, err := newExecution(x, &replayChooser{})
	if err != nil {
		return nil, err
	}
	probe.run()
	if len(probe.violations) > 0 {
		rep.Schedules++
		rep.Violations = append(rep.Violations, probe.violations...)
		rep.Truncated = true
		return rep, nil
	}
	boundaries := probe.journal.Appends()
	// In fleet mode the coordinators die too: each one, at every boundary,
	// on the happy path and under perPoint fuzzed schedules. Their
	// stateless restart must preserve every safety property with the
	// checks fully armed — surviving coordinator loss is the design claim.
	var coordNames []string
	if probe.topo != nil {
		for _, c := range probe.topo.Coords {
			coordNames = append(coordNames, c.Name)
		}
	}
	for k := 1; k <= boundaries; k++ {
		if err := x.runCrash(&replayChooser{}, rep, &crashPlan{after: k}); err != nil {
			return rep, err
		}
		if err := x.runCrash(&replayChooser{}, rep, &crashPlan{after: k, midSync: true}); err != nil {
			return rep, err
		}
		for i := 0; i < perPoint; i++ {
			ch := &randChooser{rng: rand.New(rand.NewSource(seed + int64(k)*1009 + int64(i)))}
			if err := x.runCrash(ch, rep, &crashPlan{after: k}); err != nil {
				return rep, err
			}
		}
		for ci, cn := range coordNames {
			if err := x.runCrash(&replayChooser{}, rep, &crashPlan{after: k, coord: cn}); err != nil {
				return rep, err
			}
			for i := 0; i < perPoint; i++ {
				ch := &randChooser{rng: rand.New(rand.NewSource(seed + int64(k)*1009 + int64(ci+1)*1000003 + int64(i)))}
				if err := x.runCrash(ch, rep, &crashPlan{after: k, coord: cn}); err != nil {
					return rep, err
				}
			}
		}
		if len(rep.Violations) >= x.opts.MaxViolations || rep.Schedules >= x.opts.MaxSchedules {
			rep.Truncated = true
			return rep, nil
		}
	}
	return rep, nil
}

// Replay runs the single execution identified by the given choice
// sequence (choices beyond it take the happy path) and returns its
// report — the way to confirm and inspect a reported violation.
func (x *Explorer) Replay(schedule []int) (*Report, error) {
	rep := &Report{}
	ch := &replayChooser{prefix: schedule}
	if err := x.runOne(ch, rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// ReplayTrace replays a schedule and returns the full scheduler event
// log of the execution, for human inspection.
func (x *Explorer) ReplayTrace(schedule []int) ([]string, error) {
	ch := &replayChooser{prefix: schedule}
	e, err := newExecution(x, ch)
	if err != nil {
		return nil, err
	}
	e.run()
	return e.trace, nil
}

func (x *Explorer) runOne(ch chooser, rep *Report) error {
	return x.runCrash(ch, rep, nil)
}

func (x *Explorer) runCrash(ch chooser, rep *Report, cp *crashPlan) error {
	e, err := newExecution(x, ch)
	if err != nil {
		return err
	}
	if cp != nil {
		e.armCrash(*cp)
	}
	e.run()
	rep.Schedules++
	rep.States += len(ch.taken())
	rep.Crashes += e.mgrCrashes
	rep.CoordCrashes += e.coordCrashes
	rep.Violations = append(rep.Violations, e.violations...)
	x.tel.Counter("explore.schedules").Inc()
	x.tel.Counter("explore.states").Add(int64(len(ch.taken())))
	x.tel.Counter("explore.violations").Add(int64(len(e.violations)))
	return nil
}
