package planner

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/invariant"
	"repro/internal/model"
)

// randomSystem builds a random adaptive system: n components in
// oneof-groups of random sizes, with replace actions between group
// members and occasional compound actions, all with random costs.
func randomSystem(t *testing.T, rng *rand.Rand) (*Planner, []model.Config) {
	t.Helper()
	nGroups := 2 + rng.Intn(3) // 2..4 groups
	var comps []model.Component
	var invs []invariant.Invariant
	groups := make([][]string, nGroups)
	for g := 0; g < nGroups; g++ {
		size := 2 + rng.Intn(2) // 2..3 members
		names := make([]string, size)
		for m := 0; m < size; m++ {
			name := fmt.Sprintf("C%d_%d", g, m)
			names[m] = name
			comps = append(comps, model.Component{
				Name:    name,
				Process: fmt.Sprintf("p%d", g%2),
			})
		}
		groups[g] = names
		pred := "oneof(" + names[0]
		for _, n := range names[1:] {
			pred += ", " + n
		}
		pred += ")"
		inv, err := invariant.NewStructural(fmt.Sprintf("g%d", g), pred)
		if err != nil {
			t.Fatal(err)
		}
		invs = append(invs, inv)
	}
	reg, err := model.NewRegistry(comps...)
	if err != nil {
		t.Fatal(err)
	}
	set, err := invariant.NewSet(reg, invs...)
	if err != nil {
		t.Fatal(err)
	}

	var actions []action.Action
	id := 0
	cost := func() time.Duration { return time.Duration(1+rng.Intn(40)) * time.Millisecond }
	for _, names := range groups {
		for i := range names {
			for j := range names {
				if i == j || rng.Intn(3) == 0 { // drop some edges randomly
					continue
				}
				id++
				actions = append(actions, action.MustNew(
					fmt.Sprintf("X%d", id), names[i]+" -> "+names[j], cost(), ""))
			}
		}
	}
	// A couple of compound cross-group actions.
	for c := 0; c < 2 && nGroups >= 2; c++ {
		a, b := groups[0], groups[1]
		id++
		actions = append(actions, action.MustNew(
			fmt.Sprintf("X%d", id),
			fmt.Sprintf("(%s, %s) -> (%s, %s)", a[0], b[0], a[1], b[1]),
			cost(), ""))
	}

	p, err := New(set, actions)
	if err != nil {
		t.Fatal(err)
	}
	return p, p.SafeConfigs()
}

// TestPropertyPlannersAgreeOnRandomSystems: for random systems and random
// safe source/target pairs, the eager SAG+Dijkstra pipeline and A* either
// both fail (no path) or both find paths of identical cost, each
// executable and invariant-preserving.
func TestPropertyPlannersAgreeOnRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(20040628)) // DSN 2004's opening day
	for trial := 0; trial < 40; trial++ {
		p, safe := randomSystem(t, rng)
		if len(safe) < 2 {
			continue
		}
		g, err := p.Graph()
		if err != nil {
			t.Fatal(err)
		}
		for pair := 0; pair < 6; pair++ {
			src := safe[rng.Intn(len(safe))]
			tgt := safe[rng.Intn(len(safe))]

			eager, errE := g.ShortestPath(src, tgt)
			astar, errA := p.PlanAStar(src, tgt)

			if (errE == nil) != (errA == nil) {
				t.Fatalf("trial %d: reachability disagreement %v / %v", trial, errE, errA)
			}
			if errE != nil {
				continue
			}
			if eager.Cost() != astar.Cost() {
				t.Fatalf("trial %d %s->%s: costs %v / %v",
					trial, p.Registry().BitVector(src), p.Registry().BitVector(tgt),
					eager.Cost(), astar.Cost())
			}
			// Validate the A* path executes and stays safe (eager paths
			// are validated by their own package tests).
			cur := src
			for _, e := range astar.Steps {
				next, ok := e.Action.Apply(p.Registry(), cur)
				if !ok || !p.Invariants().Satisfied(next) {
					t.Fatalf("trial %d: A* path unsafe at %s", trial, e.Action.ID)
				}
				cur = next
			}
			if cur != tgt {
				t.Fatalf("trial %d: A* path misses target", trial)
			}
		}
	}
}

// TestPropertySAGStructureOnRandomSystems: every SAG node is safe, every
// edge's action applies and lands on its recorded target, and edges never
// leave the safe set.
func TestPropertySAGStructureOnRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		p, safe := randomSystem(t, rng)
		g, err := p.Graph()
		if err != nil {
			t.Fatal(err)
		}
		safeSet := make(map[model.Config]bool, len(safe))
		for _, c := range safe {
			safeSet[c] = true
		}
		if g.NumNodes() != len(safe) {
			t.Fatalf("trial %d: %d nodes, %d safe configs", trial, g.NumNodes(), len(safe))
		}
		edges := 0
		for _, n := range g.Nodes() {
			if !p.Invariants().Satisfied(n) {
				t.Fatalf("trial %d: unsafe node %s", trial, p.Registry().BitVector(n))
			}
			for _, e := range g.OutEdges(n) {
				edges++
				got, ok := e.Action.Apply(p.Registry(), e.From)
				if !ok || got != e.To {
					t.Fatalf("trial %d: edge %s inconsistent", trial, e.Action.ID)
				}
				if !safeSet[e.To] {
					t.Fatalf("trial %d: edge leaves the safe set", trial)
				}
			}
		}
		if edges != g.NumEdges() {
			t.Fatalf("trial %d: edge count mismatch %d vs %d", trial, edges, g.NumEdges())
		}
	}
}
