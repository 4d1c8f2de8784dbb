package planner

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/invariant"
	"repro/internal/model"
	"repro/internal/paper"
)

func paperPlanner(t *testing.T) (*Planner, model.Config, model.Config) {
	t.Helper()
	scenario, err := paper.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(scenario.Invariants, scenario.Actions)
	if err != nil {
		t.Fatal(err)
	}
	return p, scenario.Source, scenario.Target
}

func TestPlanPaperScenario(t *testing.T) {
	p, src, tgt := paperPlanner(t)
	path, err := p.Plan(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if path.Cost() != paper.MAPCost || len(path.Steps) != 5 {
		t.Errorf("Plan = %s", path)
	}
}

// TestParticipantsSharedPerAction: every action's participants are
// a.Processes(reg), computed once in New with cap == len, and its
// one-phase wave holds that same slice.
func TestParticipantsSharedPerAction(t *testing.T) {
	p, _, _ := paperPlanner(t)
	for _, a := range p.Actions() {
		ps, wave, err := p.Participants(a.ID)
		if err != nil {
			t.Fatal(err)
		}
		want, err := a.Processes(p.Registry())
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ps, want) || cap(ps) != len(ps) {
			t.Errorf("%s: participants %v (cap %d), want %v with cap == len", a.ID, ps, cap(ps), want)
		}
		if len(wave) != 1 || cap(wave) != 1 || len(wave[0]) != len(ps) || &wave[0][0] != &ps[0] {
			t.Errorf("%s: wave %v is not the one phase [participants]", a.ID, wave)
		}
		if again, _, _ := p.Participants(a.ID); &again[0] != &ps[0] {
			t.Errorf("%s: participants computed again", a.ID)
		}
	}
	if _, _, err := p.Participants("no such action"); err == nil {
		t.Error("an unknown action has participants")
	}
}

func TestPlanRejectsUnsafeEndpoints(t *testing.T) {
	p, src, _ := paperPlanner(t)
	unsafe := p.Registry().MustConfigOf("E1", "E2", "D1", "D4")
	if _, err := p.Plan(unsafe, src); err == nil {
		t.Error("unsafe source should be rejected")
	}
	if _, err := p.Plan(src, unsafe); err == nil {
		t.Error("unsafe target should be rejected")
	}
}

func TestAlternatives(t *testing.T) {
	p, src, tgt := paperPlanner(t)
	paths, err := p.Alternatives(src, tgt, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("Alternatives returned %d paths", len(paths))
	}
	if paths[0].Cost() > paths[1].Cost() || paths[1].Cost() > paths[2].Cost() {
		t.Error("alternatives not cost-ordered")
	}
}

func TestActionByID(t *testing.T) {
	p, _, _ := paperPlanner(t)
	a, err := p.ActionByID("A16")
	if err != nil || a.ID != "A16" {
		t.Errorf("ActionByID = %v, %v", a, err)
	}
	if _, err := p.ActionByID("A99"); err == nil {
		t.Error("unknown action should fail")
	}
}

func TestNewRejectsDuplicateActionIDs(t *testing.T) {
	scenario, err := paper.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	dup := append(scenario.Actions, scenario.Actions[0])
	if _, err := New(scenario.Invariants, dup); err == nil {
		t.Error("duplicate action IDs should be rejected")
	}
}

// twoSubsystems builds a decomposable system: two independent pairs with
// their own oneof invariants and replace actions.
func twoSubsystems(t *testing.T) (*Planner, model.Config, model.Config) {
	t.Helper()
	reg := model.MustRegistry(
		model.Component{Name: "A1", Process: "p1"},
		model.Component{Name: "A2", Process: "p1"},
		model.Component{Name: "B1", Process: "p2"},
		model.Component{Name: "B2", Process: "p2"},
	)
	ia, err := invariant.NewStructural("a", "oneof(A1, A2)")
	if err != nil {
		t.Fatal(err)
	}
	ib, err := invariant.NewStructural("b", "oneof(B1, B2)")
	if err != nil {
		t.Fatal(err)
	}
	set, err := invariant.NewSet(reg, ia, ib)
	if err != nil {
		t.Fatal(err)
	}
	actions := []action.Action{
		action.MustNew("SA", "A1 -> A2", 10*time.Millisecond, ""),
		action.MustNew("SArev", "A2 -> A1", 10*time.Millisecond, ""),
		action.MustNew("SB", "B1 -> B2", 20*time.Millisecond, ""),
		action.MustNew("SBrev", "B2 -> B1", 20*time.Millisecond, ""),
	}
	p, err := New(set, actions)
	if err != nil {
		t.Fatal(err)
	}
	return p, reg.MustConfigOf("A1", "B1"), reg.MustConfigOf("A2", "B2")
}

func TestPlanDecomposed(t *testing.T) {
	p, src, tgt := twoSubsystems(t)
	plan, err := p.PlanDecomposed(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Sets) != 2 {
		t.Fatalf("decomposed into %d sets, want 2", len(plan.Sets))
	}
	if plan.Cost() != 30*time.Millisecond {
		t.Errorf("decomposed cost = %v, want 30ms", plan.Cost())
	}
	// The flattened steps must be executable in order on the whole system
	// and end at the target.
	cur := src
	for _, e := range plan.Steps() {
		next, ok := e.Action.Apply(p.Registry(), cur)
		if !ok {
			t.Fatalf("decomposed step %s not applicable", e.Action.ID)
		}
		if !p.Invariants().Satisfied(next) {
			t.Fatalf("decomposed path hits unsafe configuration")
		}
		cur = next
	}
	if cur != tgt {
		t.Error("decomposed plan does not reach target")
	}
}

func TestPlanDecomposedMatchesFlatCost(t *testing.T) {
	p, src, tgt := twoSubsystems(t)
	flat, err := p.PlanAStar(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := p.PlanDecomposed(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Cost() != dec.Cost() {
		t.Errorf("flat cost %v != decomposed cost %v", flat.Cost(), dec.Cost())
	}
}

func TestPlanDecomposedRejectsCrossSetActions(t *testing.T) {
	reg := model.MustRegistry(
		model.Component{Name: "A1", Process: "p1"},
		model.Component{Name: "A2", Process: "p1"},
		model.Component{Name: "B1", Process: "p2"},
		model.Component{Name: "B2", Process: "p2"},
	)
	ia, _ := invariant.NewStructural("a", "oneof(A1, A2)")
	ib, _ := invariant.NewStructural("b", "oneof(B1, B2)")
	set, err := invariant.NewSet(reg, ia, ib)
	if err != nil {
		t.Fatal(err)
	}
	cross := action.MustNew("X", "(A1, B1) -> (A2, B2)", time.Millisecond, "")
	p, err := New(set, []action.Action{cross})
	if err != nil {
		t.Fatal(err)
	}
	src := reg.MustConfigOf("A1", "B1")
	tgt := reg.MustConfigOf("A2", "B2")
	if _, err := p.PlanDecomposed(src, tgt); err == nil {
		t.Error("cross-set action must make decomposition fail")
	} else if !strings.Contains(err.Error(), "spans collaborative sets") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestSafeConfigsCached(t *testing.T) {
	p, _, _ := paperPlanner(t)
	a := p.SafeConfigs()
	b := p.SafeConfigs()
	if len(a) != len(b) || len(a) != 8 {
		t.Errorf("SafeConfigs lengths %d, %d", len(a), len(b))
	}
	// Returned slices must be independent copies.
	a[0] = 0
	if p.SafeConfigs()[0] == 0 && b[0] != 0 {
		t.Error("SafeConfigs must return copies")
	}
}
