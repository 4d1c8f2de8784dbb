package manager_test

import (
	"testing"

	"repro/internal/action"
	"repro/internal/audit"
	"repro/internal/manager"
	"repro/internal/paper"
	"repro/internal/planner"
)

// reversibleActions extends Table 2 with the inverse of every action, so
// the 128-bit hardening can be undone.
func reversibleActions() []action.Action {
	base := paper.MustScenario().Actions
	out := make([]action.Action, 0, 2*len(base))
	for _, a := range base {
		out = append(out, a)
		out = append(out, a.Inverse())
	}
	return out
}

// TestRoundTripAdaptation executes the hardening and then its reversal on
// the same deployment: the manager is reusable across requests, both runs
// conform to the figures, and the system ends exactly where it started.
func TestRoundTripAdaptation(t *testing.T) {
	scenario, err := paper.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.New(scenario.Invariants, reversibleActions())
	if err != nil {
		t.Fatal(err)
	}
	s := newStack(t, plan, manager.Options{})

	// Forward: DES-64 -> DES-128.
	fwd, err := s.mgr.Execute(scenario.Source, scenario.Target)
	if err != nil || !fwd.Completed {
		t.Fatalf("forward: %v %+v", err, fwd)
	}
	if fwd.Path.Cost() != paper.MAPCost {
		t.Errorf("forward cost = %v (inverses must not create cheaper routes)", fwd.Path.Cost())
	}

	// Backward: DES-128 -> DES-64, over the inverse edges.
	bwd, err := s.mgr.Execute(scenario.Target, scenario.Source)
	if err != nil || !bwd.Completed {
		t.Fatalf("backward: %v %+v", err, bwd)
	}
	if bwd.Final != scenario.Source {
		t.Errorf("round trip ends at %s", plan.Registry().BitVector(bwd.Final))
	}
	if bwd.Path.Cost() != paper.MAPCost {
		t.Errorf("backward cost = %v, want the symmetric %v", bwd.Path.Cost(), paper.MAPCost)
	}

	// Both runs, concatenated, still conform to Fig. 2.
	for _, issue := range audit.ManagerTrace(s.mgr.Trace()) {
		t.Errorf("manager conformance: %s", issue)
	}
	for name, ag := range s.agents {
		for _, issue := range audit.AgentTrace(ag.Trace()) {
			t.Errorf("agent %s conformance: %s", name, issue)
		}
	}
}

// TestInverseActionsDoNotChangeForwardPlan: adding inverse actions must
// not disturb the forward analysis — same safe set, same MAP cost.
func TestInverseActionsDoNotChangeForwardPlan(t *testing.T) {
	scenario, err := paper.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	base, err := planner.New(scenario.Invariants, scenario.Actions)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := planner.New(scenario.Invariants, reversibleActions())
	if err != nil {
		t.Fatal(err)
	}
	if len(base.SafeConfigs()) != len(rev.SafeConfigs()) {
		t.Error("safe set must not depend on the action table")
	}
	p1, err := base.Plan(scenario.Source, scenario.Target)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := rev.Plan(scenario.Source, scenario.Target)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Cost() != p2.Cost() {
		t.Errorf("forward MAP cost changed: %v vs %v", p1.Cost(), p2.Cost())
	}
}
