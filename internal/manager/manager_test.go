package manager_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/agent"
	"repro/internal/invariant"
	"repro/internal/manager"
	"repro/internal/model"
	"repro/internal/paper"
	"repro/internal/planner"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/video"
)

// scriptedProc is a LocalProcess whose failures are keyed by action ID.
type scriptedProc struct {
	mu sync.Mutex
	// failReset / failInAction map an action ID to how many times it
	// should fail before succeeding (-1 = always fail).
	failReset    map[string]int
	failInAction map[string]int
	inActions    []string
	rollbacks    int
	// appliedRollbacks counts rollbacks that undid an applied in-action;
	// net applied in-actions = len(inActions) - appliedRollbacks.
	appliedRollbacks int
}

func newScriptedProc() *scriptedProc {
	return &scriptedProc{
		failReset:    make(map[string]int),
		failInAction: make(map[string]int),
	}
}

func (p *scriptedProc) consume(m map[string]int, id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	n, ok := m[id]
	if !ok || n == 0 {
		return false
	}
	if n > 0 {
		m[id] = n - 1
	}
	return true
}

func (p *scriptedProc) PreAction(protocol.Step, []action.Op) error { return nil }

func (p *scriptedProc) Reset(ctx context.Context, step protocol.Step) error {
	if p.consume(p.failReset, step.ActionID) {
		return errors.New("scripted reset failure")
	}
	return nil
}

func (p *scriptedProc) InAction(step protocol.Step, _ []action.Op) error {
	if p.consume(p.failInAction, step.ActionID) {
		return errors.New("scripted in-action failure")
	}
	p.mu.Lock()
	p.inActions = append(p.inActions, step.ActionID)
	p.mu.Unlock()
	return nil
}

func (p *scriptedProc) Resume(protocol.Step) error                  { return nil }
func (p *scriptedProc) PostAction(protocol.Step, []action.Op) error { return nil }

func (p *scriptedProc) Rollback(_ protocol.Step, _ []action.Op, applied bool) error {
	p.mu.Lock()
	p.rollbacks++
	if applied {
		p.appliedRollbacks++
	}
	p.mu.Unlock()
	return nil
}

// netInActions returns applied-and-not-undone in-action count.
func (p *scriptedProc) netInActions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.inActions) - p.appliedRollbacks
}

// stack is a full protocol deployment: bus, manager, and one agent per
// process of the paper registry.
type stack struct {
	bus    *transport.Bus
	mgr    *manager.Manager
	procs  map[string]agentProc
	agents map[string]*agent.Agent
	plan   *planner.Planner
}

// scripted returns the default scripted process for a process name; it
// fails the test when the process was overridden with a custom type.
func (s *stack) scripted(t *testing.T, name string) *scriptedProc {
	t.Helper()
	sp, ok := s.procs[name].(*scriptedProc)
	if !ok {
		t.Fatalf("process %s is not a *scriptedProc", name)
	}
	return sp
}

func newStack(t *testing.T, plan *planner.Planner, opts manager.Options) *stack {
	return newStackCustom(t, plan, opts, nil)
}

// newStackCustom builds the stack with per-process overrides; processes
// not named in overrides get a fresh scriptedProc.
func newStackCustom(t *testing.T, plan *planner.Planner, opts manager.Options, overrides map[string]agentProc) *stack {
	return newStackOver(t, plan, opts, overrides, nil)
}

// newStackOver is newStackCustom with the manager's endpoint passed
// through wrap (when non-nil), so a test can watch what the manager sends.
func newStackOver(t *testing.T, plan *planner.Planner, opts manager.Options, overrides map[string]agentProc, wrap func(transport.Endpoint) transport.Endpoint) *stack {
	t.Helper()
	bus := transport.NewBus()
	bus.SetTelemetry(opts.Telemetry) // one registry for the whole stack
	mgrEP, err := bus.Endpoint(protocol.ManagerName)
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		mgrEP = wrap(mgrEP)
	}
	if opts.StepTimeout == 0 {
		opts.StepTimeout = 250 * time.Millisecond
	}
	mgr, err := manager.New(mgrEP, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := plan.Registry()
	processOf := func(c string) string {
		p, _ := reg.ProcessOf(c)
		return p
	}
	s := &stack{
		bus:    bus,
		mgr:    mgr,
		procs:  make(map[string]agentProc),
		agents: make(map[string]*agent.Agent),
		plan:   plan,
	}
	for _, proc := range reg.Processes() {
		ep, err := bus.Endpoint(proc)
		if err != nil {
			t.Fatal(err)
		}
		var sp agentProc = newScriptedProc()
		if ov, ok := overrides[proc]; ok {
			sp = ov
		}
		ag, err := agent.New(proc, ep, sp, agent.Options{
			ResetTimeout: 250 * time.Millisecond,
			ProcessOf:    processOf,
			Telemetry:    opts.Telemetry,
		})
		if err != nil {
			t.Fatal(err)
		}
		go ag.Run()
		s.procs[proc] = sp
		s.agents[proc] = ag
	}
	t.Cleanup(func() {
		for _, ag := range s.agents {
			ag.Close()
		}
		_ = bus.Close()
	})
	return s
}

func paperPlanner(t *testing.T) (*planner.Planner, model.Config, model.Config) {
	t.Helper()
	scenario, err := paper.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	p, err := planner.New(scenario.Invariants, scenario.Actions)
	if err != nil {
		t.Fatal(err)
	}
	return p, scenario.Source, scenario.Target
}

// TestExecutePaperScenario: the clean five-step MAP run reaches the
// target with every step completed.
func TestExecutePaperScenario(t *testing.T) {
	plan, src, tgt := paperPlanner(t)
	s := newStack(t, plan, manager.Options{})

	res, err := s.mgr.Execute(src, tgt)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !res.Completed || res.Final != tgt {
		t.Fatalf("result: %+v", res)
	}
	if len(res.Steps) != 5 {
		t.Fatalf("steps: %+v", res.Steps)
	}
	for _, sr := range res.Steps {
		if sr.Outcome != "completed" {
			t.Errorf("step %s outcome %q", sr.ActionID, sr.Outcome)
		}
	}
	if s.mgr.State() != manager.StateRunning {
		t.Errorf("manager final state = %v", s.mgr.State())
	}
}

// TestManagerStateDiagram verifies the Fig. 2 state walk for a single
// multi-participant step (one compound action).
func TestManagerStateDiagram(t *testing.T) {
	scenario, err := paper.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	// Only the direct compound action A14 is available: one step,
	// three participants.
	only := []action.Action{action.MustNew("A14", "(D1, D4, E1) -> (D3, D5, E2)", 150*time.Millisecond, "")}
	plan, err := planner.New(scenario.Invariants, only)
	if err != nil {
		t.Fatal(err)
	}
	s := newStack(t, plan, manager.Options{})

	res, err := s.mgr.Execute(scenario.Source, scenario.Target)
	if err != nil || !res.Completed {
		t.Fatalf("Execute: %v, %+v", err, res)
	}

	want := []manager.State{
		manager.StatePreparing, // receive adaptation request
		manager.StateAdapting,  // send reset
		manager.StateAdapted,   // receive all adapt done
		manager.StateResuming,  // send resume
		manager.StateResumed,   // receive all resume done
		manager.StateRunning,   // adaptation complete
	}
	trace := s.mgr.Trace()
	if len(trace) != len(want) {
		t.Fatalf("trace: %+v", trace)
	}
	for i, tr := range trace {
		if tr.To != want[i] {
			t.Errorf("transition %d to %v, want %v (cause %q)", i, tr.To, want[i], tr.Cause)
		}
	}

	// All three agents participated and performed A14's in-action.
	for proc := range s.procs {
		sp := s.scripted(t, proc)
		if len(sp.inActions) != 1 || sp.inActions[0] != "A14" {
			t.Errorf("agent %s in-actions = %v", proc, sp.inActions)
		}
	}
}

// TestRetrySameStepOnce: a single transient reset failure is absorbed by
// the ladder's first rung (retry the step once).
func TestRetrySameStepOnce(t *testing.T) {
	plan, src, tgt := paperPlanner(t)
	s := newStack(t, plan, manager.Options{})
	s.scripted(t, paper.ProcessHandheld).failReset["A2"] = 1 // fail once, then work

	res, err := s.mgr.Execute(src, tgt)
	if err != nil || !res.Completed {
		t.Fatalf("Execute: %v, %+v", err, res)
	}
	// First A2 attempt rolled back, second completed.
	if res.Steps[0].Outcome != "rolled back" || res.Steps[1].Outcome != "completed" {
		t.Errorf("steps: %+v", res.Steps[:2])
	}
	if res.Steps[0].ActionID != "A2" || res.Steps[1].ActionID != "A2" {
		t.Errorf("retry should target the same action: %+v", res.Steps[:2])
	}
}

// TestAlternativePathAfterPersistentFailure: when a step keeps failing,
// the manager switches to an alternative path avoiding the failed edge
// (ladder rung 2) and still completes.
func TestAlternativePathAfterPersistentFailure(t *testing.T) {
	plan, src, tgt := paperPlanner(t)
	s := newStack(t, plan, manager.Options{})
	// A2 fails forever on the handheld at the source configuration; both
	// its attempts burn, then the manager must route around that edge.
	s.scripted(t, paper.ProcessHandheld).failReset["A2"] = -1

	res, err := s.mgr.Execute(src, tgt)
	if err != nil || !res.Completed {
		t.Fatalf("Execute: %v, %+v", err, res)
	}
	// The completed path must avoid A2 entirely (it fails at every edge).
	for _, id := range res.Path.ActionIDs() {
		if id == "A2" {
			t.Errorf("completed path still uses A2: %v", res.Path.ActionIDs())
		}
	}
	if res.Final != tgt {
		t.Error("must reach target via alternative path")
	}
}

// TestUserInterventionWhenStuck: when no path to the target nor back to
// the source can complete, Execute surfaces ErrUserIntervention with the
// safe configuration the system is parked at (ladder rung 4).
func TestUserInterventionWhenStuck(t *testing.T) {
	plan, src, tgt := paperPlanner(t)
	s := newStack(t, plan, manager.Options{MaxAlternatives: 6})
	// The handheld refuses every decoder change: no path to the target
	// can complete (all need D2 or D3 installed on the handheld).
	hh := s.scripted(t, paper.ProcessHandheld)
	for _, id := range []string{"A2", "A3", "A4", "A6", "A7", "A8", "A10", "A11", "A12", "A13", "A14", "A15"} {
		hh.failReset[id] = -1
	}

	res, err := s.mgr.Execute(src, tgt)
	var ui *manager.ErrUserIntervention
	if !errors.As(err, &ui) {
		t.Fatalf("expected ErrUserIntervention, got %v (res %+v)", err, res)
	}
	if !plan.Invariants().Satisfied(ui.Current) {
		t.Errorf("parked configuration %s is not safe", ui.Vector)
	}
	if res.Completed {
		t.Error("result must not be marked completed")
	}
}

// twoLegPlanner builds a two-process system whose adaptation {A,C} →
// {B,D} takes two legs, each with an inverse action — the smallest one
// where a failed second leg can be answered by returning to the source.
func twoLegPlanner(t *testing.T) (*planner.Planner, *model.Registry) {
	t.Helper()
	reg := model.MustRegistry(
		model.Component{Name: "A", Process: "p1"},
		model.Component{Name: "B", Process: "p1"},
		model.Component{Name: "C", Process: "p2"},
		model.Component{Name: "D", Process: "p2"},
	)
	i1, err := invariant.NewStructural("one", "oneof(A, B)")
	if err != nil {
		t.Fatal(err)
	}
	i2, err := invariant.NewStructural("two", "oneof(C, D)")
	if err != nil {
		t.Fatal(err)
	}
	set, err := invariant.NewSet(reg, i1, i2)
	if err != nil {
		t.Fatal(err)
	}
	actions := []action.Action{
		action.MustNew("F1", "A -> B", 10*time.Millisecond, "first leg"),
		action.MustNew("F1r", "B -> A", 10*time.Millisecond, "first leg back"),
		action.MustNew("F2", "C -> D", 10*time.Millisecond, "second leg"),
		action.MustNew("F2r", "D -> C", 10*time.Millisecond, "second leg back"),
	}
	plan, err := planner.New(set, actions)
	if err != nil {
		t.Fatal(err)
	}
	return plan, reg
}

// TestReturnToSource: with inverse actions available, a system that
// cannot reach the target returns to the source (ladder rung 3).
func TestReturnToSource(t *testing.T) {
	plan, reg := twoLegPlanner(t)
	s := newStack(t, plan, manager.Options{})
	// The second leg always fails: target {B,D} is unreachable, but the
	// first leg is reversible via F1r.
	s.scripted(t, "p2").failReset["F2"] = -1

	src := reg.MustConfigOf("A", "C")
	tgt := reg.MustConfigOf("B", "D")
	res, err := s.mgr.Execute(src, tgt)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Completed {
		t.Error("adaptation must not complete")
	}
	if !res.ReturnedToSource || res.Final != src {
		t.Errorf("expected return to source, got %+v at %s", res, reg.BitVector(res.Final))
	}
}

// TestLossOfResetDoneBeforeResume: a lost "reset done" (transient
// network failure before the first resume) triggers rollback and a
// successful retry — the paper's abort-then-retry rule.
func TestLossOfResetDoneBeforeResume(t *testing.T) {
	plan, src, tgt := paperPlanner(t)
	s := newStack(t, plan, manager.Options{})
	s.bus.SetFault(transport.DropSequence(1, transport.MatchType(protocol.MsgResetDone)))

	res, err := s.mgr.Execute(src, tgt)
	if err != nil || !res.Completed {
		t.Fatalf("Execute: %v, %+v", err, res)
	}
	if res.Steps[0].Outcome != "rolled back" {
		t.Errorf("first attempt should have rolled back: %+v", res.Steps[0])
	}
}

// TestLossOfResetMessage: a lost "reset" command is detected by timeout
// and retried; the run completes.
func TestLossOfResetMessage(t *testing.T) {
	plan, src, tgt := paperPlanner(t)
	s := newStack(t, plan, manager.Options{})
	s.bus.SetFault(transport.DropSequence(1, transport.MatchType(protocol.MsgReset)))

	res, err := s.mgr.Execute(src, tgt)
	if err != nil || !res.Completed {
		t.Fatalf("Execute: %v, %+v", err, res)
	}
}

// TestLossOfResumeDoneRunsToCompletion: after the first resume is sent
// the adaptation must run to completion — a lost "resume done" is
// re-requested, not rolled back.
func TestLossOfResumeDoneRunsToCompletion(t *testing.T) {
	plan, src, tgt := paperPlanner(t)
	s := newStack(t, plan, manager.Options{})
	s.bus.SetFault(transport.DropSequence(1, transport.MatchType(protocol.MsgResumeDone)))

	res, err := s.mgr.Execute(src, tgt)
	if err != nil || !res.Completed {
		t.Fatalf("Execute: %v, %+v", err, res)
	}
	// No step may have rolled back: the loss happened after the point of
	// no return, so the step still completed.
	for _, sr := range res.Steps {
		if sr.Outcome != "completed" {
			t.Errorf("step %s outcome %q, want completed", sr.ActionID, sr.Outcome)
		}
	}
}

// TestRollbackRestoresAgents: after a failed step the participating
// agents' processes must have been rolled back.
func TestRollbackRestoresAgents(t *testing.T) {
	plan, src, tgt := paperPlanner(t)
	s := newStack(t, plan, manager.Options{})
	s.scripted(t, paper.ProcessHandheld).failInAction["A2"] = 1

	res, err := s.mgr.Execute(src, tgt)
	if err != nil || !res.Completed {
		t.Fatalf("Execute: %v, %+v", err, res)
	}
	if s.scripted(t, paper.ProcessHandheld).rollbacks == 0 {
		t.Error("handheld should have rolled back after the in-action failure")
	}
}

// TestExecuteSourceEqualsTarget: a no-op request completes immediately.
func TestExecuteSourceEqualsTarget(t *testing.T) {
	plan, src, _ := paperPlanner(t)
	s := newStack(t, plan, manager.Options{})
	res, err := s.mgr.Execute(src, src)
	if err != nil || !res.Completed || len(res.Steps) != 0 {
		t.Fatalf("Execute: %v, %+v", err, res)
	}
}

// TestResetPhasesOrdering: with a sender-first phase policy, the server's
// agent must reach its safe state before any client receives reset.
func TestResetPhasesOrdering(t *testing.T) {
	scenario, err := paper.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	only := []action.Action{action.MustNew("A14", "(D1, D4, E1) -> (D3, D5, E2)", 150*time.Millisecond, "")}
	plan, err := planner.New(scenario.Invariants, only)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var resetOrder []string
	s := newStack(t, plan, manager.Options{
		ResetPhases: func(_ action.Action, participants []string) [][]string {
			var server, clients []string
			for _, p := range participants {
				if p == paper.ProcessServer {
					server = append(server, p)
				} else {
					clients = append(clients, p)
				}
			}
			return [][]string{server, clients}
		},
	})
	// Spy on reset arrival order via the fault hook (observing, never
	// dropping).
	s.bus.SetFault(func(msg protocol.Message) (bool, time.Duration) {
		if msg.Type == protocol.MsgReset {
			mu.Lock()
			resetOrder = append(resetOrder, msg.To)
			mu.Unlock()
		}
		return false, 0
	})

	res, err := s.mgr.Execute(scenario.Source, scenario.Target)
	if err != nil || !res.Completed {
		t.Fatalf("Execute: %v, %+v", err, res)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(resetOrder) != 3 || resetOrder[0] != paper.ProcessServer {
		t.Errorf("reset order = %v, want server first", resetOrder)
	}
}

// TestPhasePolicyLeavesSharedParticipantsAlone: a step's participants are
// the planner's, shared by every step of the action. The sender-first
// policy conscripts the server into client-only steps; that step gets a
// copy, and across two adaptations the planner's slices keep their
// contents and their arrays.
func TestPhasePolicyLeavesSharedParticipantsAlone(t *testing.T) {
	plan, src, tgt := paperPlanner(t)
	type shared struct {
		participants []string
		first        *string
	}
	before := map[string]shared{}
	for _, a := range plan.Actions() {
		ps, _, err := plan.Participants(a.ID)
		if err != nil {
			t.Fatal(err)
		}
		before[a.ID] = shared{slices.Clone(ps), &ps[0]}
	}

	var mu sync.Mutex
	serverResets := 0
	s := newStack(t, plan, manager.Options{
		ResetPhases: func(_ action.Action, participants []string) [][]string {
			return video.SenderFirstPhases(participants)
		},
	})
	s.bus.SetFault(func(msg protocol.Message) (bool, time.Duration) {
		if msg.Type == protocol.MsgReset && msg.To == paper.ProcessServer {
			mu.Lock()
			serverResets++
			mu.Unlock()
		}
		return false, 0
	})
	steps, conscripted := 0, 0
	for range 2 {
		res, err := s.mgr.Execute(src, tgt)
		if err != nil || !res.Completed {
			t.Fatalf("Execute: %v, %+v", err, res)
		}
		for _, st := range res.Steps {
			steps++
			if !slices.Contains(before[st.ActionID].participants, paper.ProcessServer) {
				conscripted++
			}
		}
	}
	if conscripted == 0 {
		t.Fatal("no step conscripted the server; the test checks nothing")
	}
	mu.Lock()
	if serverResets != steps {
		t.Errorf("the server was reset %d times in %d steps, want every step", serverResets, steps)
	}
	mu.Unlock()
	for id, b := range before {
		ps, wave, _ := plan.Participants(id)
		if !slices.Equal(ps, b.participants) || &ps[0] != b.first || cap(ps) != len(ps) {
			t.Errorf("%s: the planner's participants became %v (cap %d), want %v in the same array", id, ps, cap(ps), b.participants)
		}
		if len(wave) != 1 || &wave[0][0] != b.first {
			t.Errorf("%s: the planner's wave became %v", id, wave)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	plan, _, _ := paperPlanner(t)
	if _, err := manager.New(nil, plan, manager.Options{}); err == nil {
		t.Error("nil endpoint should fail")
	}
	bus := transport.NewBus()
	defer func() { _ = bus.Close() }()
	ep, err := bus.Endpoint("m")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := manager.New(ep, nil, manager.Options{}); err == nil {
		t.Error("nil planner should fail")
	}
}

func TestStepReportBlockedWindows(t *testing.T) {
	plan, src, tgt := paperPlanner(t)
	s := newStack(t, plan, manager.Options{})
	res, err := s.mgr.Execute(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range res.Steps {
		if sr.BlockedFor <= 0 {
			t.Errorf("step %s blocked-for = %v, want > 0", sr.ActionID, sr.BlockedFor)
		}
		if sr.From == "" || sr.To == "" {
			t.Errorf("step %s missing vectors: %+v", sr.ActionID, sr)
		}
	}
	_ = fmt.Sprintf("%v", res) // reports must be printable
}

// TestPaperResetWaves pins, for each step of the paper's MAP, the
// participants and reset phases the manager sends under the video
// system's sender-first policy: the server is conscripted ahead of every
// client-only step, and the server's solo step A1 is one phase.
func TestPaperResetWaves(t *testing.T) {
	plan, src, tgt := paperPlanner(t)
	var mu sync.Mutex
	var sent []string
	seen := map[string]bool{}
	s := newStack(t, plan, manager.Options{
		ResetPhases: func(_ action.Action, participants []string) [][]string {
			return video.SenderFirstPhases(participants)
		},
	})
	s.bus.SetFault(func(msg protocol.Message) (bool, time.Duration) {
		if msg.Type == protocol.MsgReset {
			mu.Lock()
			if !seen[msg.Step.ActionID] {
				seen[msg.Step.ActionID] = true
				sent = append(sent, fmt.Sprintf("%s %v %v", msg.Step.ActionID, msg.Step.Participants, msg.Step.ResetPhases))
			}
			mu.Unlock()
		}
		return false, 0
	})
	res, err := s.mgr.Execute(src, tgt)
	if err != nil || !res.Completed {
		t.Fatalf("Execute: %v, %+v", err, res)
	}
	want := []string{
		"A2 [handheld server] [[server] [handheld]]",
		"A17 [laptop server] [[server] [laptop]]",
		"A1 [server] [[server]]",
		"A4 [handheld server] [[server] [handheld]]",
		"A16 [laptop server] [[server] [laptop]]",
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(sent, want) {
		t.Errorf("reset waves sent:\n%q\nwant:\n%q", sent, want)
	}
}
