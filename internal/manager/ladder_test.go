package manager_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/agent"
	"repro/internal/invariant"
	"repro/internal/journal"
	"repro/internal/manager"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/protocol"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// ladderScenario builds a small reversible SAG with alternative routes,
// so every rung of the recovery ladder has something to climb: two
// components on p1 (A<->B), three on p2 (C<->D<->E, C<->E), and a
// dependency D -> B that forces the MAP to take the p1 step first.
func ladderScenario(t *testing.T) (*planner.Planner, model.Config, model.Config) {
	t.Helper()
	reg := model.MustRegistry(
		model.Component{Name: "A", Process: "p1"},
		model.Component{Name: "B", Process: "p1"},
		model.Component{Name: "C", Process: "p2"},
		model.Component{Name: "D", Process: "p2"},
		model.Component{Name: "E", Process: "p2"},
	)
	i1, err := invariant.NewStructural("one", "oneof(A, B)")
	if err != nil {
		t.Fatal(err)
	}
	i2, err := invariant.NewStructural("two", "oneof(C, D, E)")
	if err != nil {
		t.Fatal(err)
	}
	i3, err := invariant.NewDependency("D-needs-B", "D -> B")
	if err != nil {
		t.Fatal(err)
	}
	set, err := invariant.NewSet(reg, i1, i2, i3)
	if err != nil {
		t.Fatal(err)
	}
	actions := []action.Action{
		action.MustNew("F1", "A -> B", 10*time.Millisecond, "first leg"),
		action.MustNew("F1r", "B -> A", 10*time.Millisecond, "first leg back"),
		action.MustNew("G1", "C -> D", 10*time.Millisecond, "direct second leg"),
		action.MustNew("G1r", "D -> C", 10*time.Millisecond, "direct second leg back"),
		action.MustNew("G2", "C -> E", 30*time.Millisecond, "detour, first hop"),
		action.MustNew("G2r", "E -> C", 30*time.Millisecond, "detour back"),
		action.MustNew("G3", "E -> D", 30*time.Millisecond, "detour, second hop"),
		action.MustNew("G3r", "D -> E", 30*time.Millisecond, "detour undone"),
	}
	plan, err := planner.New(set, actions)
	if err != nil {
		t.Fatal(err)
	}
	return plan, reg.MustConfigOf("A", "C"), reg.MustConfigOf("B", "D")
}

// TestLadderExhaustionOverLossyNetwork walks the paper's entire recovery
// ladder in one run, driven by one deterministic network fault: every
// "reset done" for a step that does not start at the source configuration
// is lost. The first MAP step (from the source) completes, so the system
// advances one hop — and from there every rung fails in turn: the
// same-step retry (option 1), the alternative detour path (option 2), the
// return-to-source path (option 3, whose steps no longer start at the
// source either), until the manager parks at the intermediate
// configuration and asks for user intervention (option 4). The journal
// and the telemetry counters must record each rung being climbed.
func TestLadderExhaustionOverLossyNetwork(t *testing.T) {
	plan, src, tgt := ladderScenario(t)
	reg := plan.Registry()
	srcVec := reg.BitVector(src)

	tel := telemetry.NewRegistry()
	mem := journal.NewMem()
	// A manual clock: the jittered backoffs are still decided and
	// counted, but the test does not wait them out.
	start := time.Unix(0, 0)
	clk := simnet.NewManualClock(start)
	s := newStack(t, plan, manager.Options{
		StepTimeout: 100 * time.Millisecond,
		Telemetry:   tel,
		Journal:     mem,
		BackoffSeed: 42,
		Clock:       clk,
	})
	s.bus.SetFault(transport.DropAll(func(m protocol.Message) bool {
		return m.Type == protocol.MsgResetDone && m.Step.FromVector != srcVec
	}))

	res, err := s.mgr.Execute(src, tgt)
	var ui *manager.ErrUserIntervention
	if !errors.As(err, &ui) {
		t.Fatalf("want ErrUserIntervention after the ladder is exhausted, got %v", err)
	}
	if res.Completed || res.ReturnedToSource {
		t.Fatalf("no rung may succeed: %+v", res)
	}
	if res.Final == src || res.Final == tgt {
		t.Errorf("system should be parked at an intermediate configuration, is at %s", reg.BitVector(res.Final))
	}
	if ui.Vector != reg.BitVector(res.Final) {
		t.Errorf("error vector %s != final configuration %s", ui.Vector, reg.BitVector(res.Final))
	}
	if res.Steps[0].ActionID != "F1" || res.Steps[0].Outcome != "completed" {
		t.Errorf("first step (from the source) should complete, got %+v", res.Steps[0])
	}
	rolledBack := 0
	for _, sr := range res.Steps[1:] {
		if sr.Outcome == "rolled back" {
			rolledBack++
		}
	}
	if rolledBack < 3 {
		t.Errorf("expected the retry, alternative, and return-to-source attempts to roll back, got %d rollbacks: %+v", rolledBack, res.Steps)
	}

	// The journal narrates the ladder: an alternative plan, a
	// return-to-source plan, and a user-intervention verdict.
	recs, err := mem.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var sawAlt, sawReturn, sawVerdict bool
	for _, r := range recs {
		switch {
		case r.Kind == journal.KindPlan && strings.HasPrefix(r.Detail, "alternative: "):
			sawAlt = true
		case r.Kind == journal.KindPlan && strings.HasPrefix(r.Detail, "return to source: "):
			sawReturn = true
		case r.Kind == journal.KindAdaptEnd && r.Outcome == "user intervention":
			sawVerdict = true
		}
	}
	if !sawAlt || !sawReturn || !sawVerdict {
		t.Errorf("journal missing ladder rungs: alternative=%v returnToSource=%v verdict=%v", sawAlt, sawReturn, sawVerdict)
	}

	// Each failed step was retried once, with a backoff before the retry.
	if got := tel.Counter("manager.step.retries").Value(); got < 3 {
		t.Errorf("step retries = %d, want >= 3", got)
	}
	if got := tel.Counter("manager.alternative_paths").Value(); got < 1 {
		t.Errorf("alternative paths = %d, want >= 1", got)
	}
	if got := tel.Counter("manager.backoffs").Value(); got < 3 {
		t.Errorf("backoffs = %d, want >= 3", got)
	}
	if !clk.Now().After(start) {
		t.Error("backoff never slept on the manager's clock")
	}

	// Rollback left every agent running in a consistent configuration.
	for name, ag := range s.agents {
		if got := ag.State(); got != agent.StateRunning {
			t.Errorf("agent %s parked in state %v", name, got)
		}
	}
}
