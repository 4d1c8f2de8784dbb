package planner

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/action"
	"repro/internal/invariant"
	"repro/internal/model"
	"repro/internal/paper"
	"repro/internal/sag"
)

func TestPlanAStarPaperScenario(t *testing.T) {
	p, src, tgt := paperPlanner(t)
	path, err := p.PlanAStar(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if path.Cost() != paper.MAPCost {
		t.Errorf("A* cost = %v, want %v", path.Cost(), paper.MAPCost)
	}
	// The path must be executable and safe throughout.
	cur := src
	for _, e := range path.Steps {
		next, ok := e.Action.Apply(p.Registry(), cur)
		if !ok || !p.Invariants().Satisfied(next) {
			t.Fatalf("A* path invalid at %s", e.Action.ID)
		}
		cur = next
	}
	if cur != tgt {
		t.Error("A* path does not reach the target")
	}
}

// TestPlanAStarMatchesDijkstraEverywhere: the heuristic is admissible, so
// A* must be cost-optimal for every safe pair of the case study.
func TestPlanAStarMatchesDijkstraEverywhere(t *testing.T) {
	p, _, _ := paperPlanner(t)
	g, err := p.Graph()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range p.SafeConfigs() {
		for _, d := range p.SafeConfigs() {
			eager, errE := g.ShortestPath(s, d)
			astar, errA := p.PlanAStar(s, d)
			if (errE == nil) != (errA == nil) {
				t.Fatalf("%s->%s: dijkstra err %v, A* err %v",
					p.Registry().BitVector(s), p.Registry().BitVector(d), errE, errA)
			}
			if errE == nil && eager.Cost() != astar.Cost() {
				t.Errorf("%s->%s: dijkstra %v, A* %v",
					p.Registry().BitVector(s), p.Registry().BitVector(d), eager.Cost(), astar.Cost())
			}
		}
	}
}

func TestPlanAStarNoActions(t *testing.T) {
	reg := model.MustRegistry(
		model.Component{Name: "A", Process: "p"},
		model.Component{Name: "B", Process: "p"},
	)
	inv, _ := invariant.NewStructural("any", "A | B")
	set, err := invariant.NewSet(reg, inv)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.PlanAStar(reg.MustConfigOf("A"), reg.MustConfigOf("B"))
	var noPath *sag.ErrNoPath
	if !errors.As(err, &noPath) {
		t.Errorf("expected no-path error, got %v", err)
	}
	// Trivial self-path still succeeds.
	if path, err := p.PlanAStar(reg.MustConfigOf("A"), reg.MustConfigOf("A")); err != nil || len(path.Steps) != 0 {
		t.Errorf("self path: %v %v", path, err)
	}
}

// TestPropertyAStarOptimalOnRandomSystems builds random pair systems with
// random costs and cross-checks A* against the eager SAG+Dijkstra pipeline.
func TestPropertyAStarOptimalOnRandomSystems(t *testing.T) {
	f := func(costs [4]uint8, srcBits, tgtBits uint8) bool {
		reg := model.MustRegistry(
			model.Component{Name: "A1", Process: "p"},
			model.Component{Name: "A2", Process: "p"},
			model.Component{Name: "B1", Process: "q"},
			model.Component{Name: "B2", Process: "q"},
		)
		ia, _ := invariant.NewStructural("a", "oneof(A1, A2)")
		ib, _ := invariant.NewStructural("b", "oneof(B1, B2)")
		set, err := invariant.NewSet(reg, ia, ib)
		if err != nil {
			return false
		}
		ms := func(i int) time.Duration { return time.Duration(int(costs[i])%50+1) * time.Millisecond }
		actions := []action.Action{
			action.MustNew("F1", "A1 -> A2", ms(0), ""),
			action.MustNew("R1", "A2 -> A1", ms(1), ""),
			action.MustNew("F2", "B1 -> B2", ms(2), ""),
			action.MustNew("R2", "B2 -> B1", ms(3), ""),
		}
		p, err := New(set, actions)
		if err != nil {
			return false
		}
		pick := func(b uint8) model.Config {
			names := []string{"A1", "B1"}
			if b&1 != 0 {
				names[0] = "A2"
			}
			if b&2 != 0 {
				names[1] = "B2"
			}
			return reg.MustConfigOf(names...)
		}
		src, tgt := pick(srcBits), pick(tgtBits)
		eager, errE := p.Plan(src, tgt)
		astar, errA := p.PlanAStar(src, tgt)
		if (errE == nil) != (errA == nil) {
			return false
		}
		if errE != nil {
			return true
		}
		return eager.Cost() == astar.Cost()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
