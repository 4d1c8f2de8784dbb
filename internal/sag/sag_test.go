package sag

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/invariant"
	"repro/internal/model"
	"repro/internal/paper"
)

// buildPaperGraph constructs the case study's SAG.
func buildPaperGraph(t *testing.T) (*Graph, *model.Registry, model.Config, model.Config) {
	t.Helper()
	s := paper.MustScenario()
	g, err := Build(s.Registry, s.Invariants.SafeConfigs(), s.Actions)
	if err != nil {
		t.Fatal(err)
	}
	return g, s.Registry, s.Source, s.Target
}

// TestPaperFigure4SAG reproduces Fig. 4: the SAG over Table 1's safe
// configurations and Table 2's actions has exactly the derived arcs (the
// figure's fourteen plus the two cost-dominated compound arcs A6 and A8 —
// see paper.Figure4Edges).
func TestPaperFigure4SAG(t *testing.T) {
	g, _, _, _ := buildPaperGraph(t)
	if g.NumNodes() != 8 {
		t.Fatalf("SAG has %d nodes, want 8", g.NumNodes())
	}
	got := g.EdgeList()
	want := paper.Figure4Edges
	if len(got) != len(want) {
		t.Fatalf("SAG has %d edges, want %d:\n got: %s\nwant: %s",
			len(got), len(want), strings.Join(got, "\n      "), strings.Join(want, "\n      "))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("edge %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestPaperMAP reproduces the case study's planning result: the minimum
// adaptation path from (D4,D1,E1) to (D5,D3,E2) costs exactly 50 ms over
// 5 steps, and the paper's reported path A2,A17,A1,A16,A4 is among the
// co-optimal minimum paths.
func TestPaperMAP(t *testing.T) {
	g, reg, src, tgt := buildPaperGraph(t)
	path, err := g.ShortestPath(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if path.Cost() != paper.MAPCost {
		t.Errorf("MAP cost = %v, want %v", path.Cost(), paper.MAPCost)
	}
	if len(path.Steps) != 5 {
		t.Errorf("MAP length = %d (%v), want 5", len(path.Steps), path.ActionIDs())
	}
	// The path must be executable: each step applies to its predecessor.
	cur := src
	for _, e := range path.Steps {
		next, ok := e.Action.Apply(reg, cur)
		if !ok || next != e.To {
			t.Fatalf("step %s not applicable at %s", e.Action.ID, reg.BitVector(cur))
		}
		cur = next
	}
	if cur != tgt {
		t.Errorf("path ends at %s, want %s", reg.BitVector(cur), reg.BitVector(tgt))
	}

	// The paper's reported sequence must appear among the minimum paths.
	paths, err := g.KShortestPaths(src, tgt, 8)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range paths {
		if p.Cost() != paper.MAPCost {
			break // sorted by cost; done with the co-optimal ones
		}
		ids := p.ActionIDs()
		if equalStrings(ids, paper.MAPActionIDs) {
			found = true
			break
		}
	}
	if !found {
		var all []string
		for _, p := range paths {
			all = append(all, p.String())
		}
		t.Errorf("paper MAP %v not among minimum paths:\n%s", paper.MAPActionIDs, strings.Join(all, "\n"))
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestShortestPathSameSourceTarget(t *testing.T) {
	g, _, src, _ := buildPaperGraph(t)
	p, err := g.ShortestPath(src, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 0 || p.Cost() != 0 {
		t.Errorf("self path = %v", p)
	}
}

func TestShortestPathUnsafeEndpoints(t *testing.T) {
	g, reg, src, _ := buildPaperGraph(t)
	unsafe := reg.MustConfigOf("E1") // not a safe configuration
	if _, err := g.ShortestPath(unsafe, src); err == nil {
		t.Error("unsafe source should fail")
	}
	if _, err := g.ShortestPath(src, unsafe); err == nil {
		t.Error("unsafe target should fail")
	}
}

func TestNoPath(t *testing.T) {
	// Two safe configurations with no connecting action.
	reg := model.MustRegistry(
		model.Component{Name: "A", Process: "p"},
		model.Component{Name: "B", Process: "p"},
	)
	inv, err := invariant.NewStructural("any", "A | B")
	if err != nil {
		t.Fatal(err)
	}
	set, err := invariant.NewSet(reg, inv)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(reg, set.SafeConfigs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	a := reg.MustConfigOf("A")
	b := reg.MustConfigOf("B")
	_, err = g.ShortestPath(a, b)
	var noPath *ErrNoPath
	if !errors.As(err, &noPath) {
		t.Errorf("expected *ErrNoPath, got %v", err)
	}
}

// TestKShortestOrdering: paths come back in non-decreasing cost, loopless,
// and distinct.
func TestKShortestOrdering(t *testing.T) {
	g, _, src, tgt := buildPaperGraph(t)
	paths, err := g.KShortestPaths(src, tgt, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 4 {
		t.Fatalf("expected at least the 4 co-optimal paths, got %d", len(paths))
	}
	var prev time.Duration
	seen := map[string]bool{}
	for i, p := range paths {
		if p.Cost() < prev {
			t.Errorf("path %d cost %v < previous %v", i, p.Cost(), prev)
		}
		prev = p.Cost()
		key := strings.Join(p.ActionIDs(), ",")
		if seen[key] {
			t.Errorf("duplicate path %s", key)
		}
		seen[key] = true
		// Loopless: no configuration repeats.
		cfgs := p.Configs()
		cfgSeen := map[model.Config]bool{}
		for _, c := range cfgs {
			if cfgSeen[c] {
				t.Errorf("path %d revisits a configuration", i)
			}
			cfgSeen[c] = true
		}
	}
	// Exactly four minimum-cost (50ms) paths exist in the case study.
	minCount := 0
	for _, p := range paths {
		if p.Cost() == paper.MAPCost {
			minCount++
		}
	}
	if minCount != 4 {
		t.Errorf("co-optimal path count = %d, want 4", minCount)
	}
}

func TestKShortestK1MatchesShortest(t *testing.T) {
	g, _, src, tgt := buildPaperGraph(t)
	sp, err := g.ShortestPath(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := g.KShortestPaths(src, tgt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 1 || !equalStrings(ks[0].ActionIDs(), sp.ActionIDs()) {
		t.Errorf("k=1 path %v != shortest %v", ks[0].ActionIDs(), sp.ActionIDs())
	}
}

func TestOutEdgesAndHasNode(t *testing.T) {
	g, reg, src, tgt := buildPaperGraph(t)
	if !g.HasNode(src) || !g.HasNode(tgt) {
		t.Error("source and target must be SAG nodes")
	}
	if g.HasNode(reg.MustConfigOf("E1")) {
		t.Error("unsafe configuration must not be a node")
	}
	out := g.OutEdges(src)
	if len(out) != 4 { // A2, A13, A14, A17
		ids := make([]string, len(out))
		for i, e := range out {
			ids[i] = e.Action.ID
		}
		t.Errorf("source out-edges = %v, want 4", ids)
	}
	if n := len(g.OutEdges(tgt)); n != 0 {
		t.Errorf("target has %d outgoing edges, want 0", n)
	}
}

func TestBuildValidation(t *testing.T) {
	reg := paper.MustScenario().Registry
	if _, err := Build(nil, []model.Config{0}, nil); err == nil {
		t.Error("nil registry should fail")
	}
	if _, err := Build(reg, nil, nil); err == nil {
		t.Error("empty safe set should fail")
	}
	if _, err := Build(reg, []model.Config{1, 1}, nil); err == nil {
		t.Error("duplicate safe configuration should fail")
	}
	bad := action.Action{ID: "bad", Ops: []action.Op{{Kind: action.Insert, New: "nope"}}}
	if _, err := Build(reg, []model.Config{1}, []action.Action{bad}); err == nil {
		t.Error("invalid action should fail")
	}
}

func TestDOTDeterministic(t *testing.T) {
	g, _, _, _ := buildPaperGraph(t)
	d1 := g.DOT("sag")
	d2 := g.DOT("sag")
	if d1 != d2 {
		t.Error("DOT output must be deterministic")
	}
	if !strings.Contains(d1, `"0100101"`) || !strings.Contains(d1, "A17: +D5") {
		t.Errorf("DOT missing expected content:\n%s", d1)
	}
}

func TestPathHelpers(t *testing.T) {
	g, _, src, tgt := buildPaperGraph(t)
	p, err := g.ShortestPath(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Configs()); got != 6 {
		t.Errorf("Configs length = %d, want 6", got)
	}
	if p.Configs()[0] != src || p.Configs()[5] != tgt {
		t.Error("Configs endpoints wrong")
	}
	if !strings.Contains(p.String(), "cost 50ms") {
		t.Errorf("String = %q", p.String())
	}
	var empty Path
	if empty.String() != "<empty path>" || empty.Configs() != nil || empty.Cost() != 0 {
		t.Error("empty path helpers wrong")
	}
}
