package safeadapt_test

import (
	"context"
	"sync"
	"testing"
	"time"

	safeadapt "repro"
	"repro/internal/action"
	"repro/internal/paper"
	"repro/internal/protocol"
)

func TestPaperCaseStudyPipeline(t *testing.T) {
	sys, err := safeadapt.PaperCaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name() != "dsn04-video-multicast" {
		t.Errorf("name = %s", sys.Name())
	}
	if got := len(sys.SafeConfigurations()); got != 8 {
		t.Errorf("safe configurations = %d, want 8", got)
	}
	g, err := sys.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 8 || g.NumEdges() != 16 {
		t.Errorf("SAG = %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	path, err := sys.PlanRequest()
	if err != nil {
		t.Fatal(err)
	}
	if path.Cost() != 50*time.Millisecond || len(path.Steps) != 5 {
		t.Errorf("MAP = %s", path)
	}
	if !sys.IsSafe(sys.Source()) || !sys.IsSafe(sys.Target()) {
		t.Error("request endpoints must be safe")
	}
	if got := sys.FormatConfig(sys.Source()); got != "0100101 {D4,D1,E1}" {
		t.Errorf("FormatConfig = %q", got)
	}
	if sets := sys.CollaborativeSets(); len(sets) != 1 {
		t.Errorf("collaborative sets = %v", sets)
	}
	astar, err := sys.PlanAStar(sys.Source(), sys.Target())
	if err != nil || astar.Cost() != path.Cost() {
		t.Errorf("A* plan = %v, %v", astar, err)
	}
	alts, err := sys.Alternatives(sys.Source(), sys.Target(), 2)
	if err != nil || len(alts) != 2 {
		t.Errorf("alternatives = %v, %v", alts, err)
	}
}

// nopProcess is a minimal LocalProcess for facade-level deployment tests.
type nopProcess struct {
	mu      sync.Mutex
	applied []string
}

func (p *nopProcess) PreAction(protocol.Step, []action.Op) error { return nil }
func (p *nopProcess) Reset(context.Context, protocol.Step) error { return nil }
func (p *nopProcess) InAction(step protocol.Step, _ []action.Op) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.applied = append(p.applied, step.ActionID)
	return nil
}
func (p *nopProcess) Resume(protocol.Step) error                      { return nil }
func (p *nopProcess) PostAction(protocol.Step, []action.Op) error     { return nil }
func (p *nopProcess) Rollback(protocol.Step, []action.Op, bool) error { return nil }

func TestDeployAndAdapt(t *testing.T) {
	sys, err := safeadapt.PaperCaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	procs := map[string]safeadapt.LocalProcess{
		paper.ProcessServer:   &nopProcess{},
		paper.ProcessHandheld: &nopProcess{},
		paper.ProcessLaptop:   &nopProcess{},
	}
	dep, err := sys.Deploy(procs, safeadapt.DeployOptions{StepTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	res, err := dep.Adapt(sys.Source(), sys.Target())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Final != sys.Target() {
		t.Errorf("result = %+v", res)
	}
	if ag, err := dep.Agent(paper.ProcessHandheld); err != nil || ag == nil {
		t.Errorf("Agent: %v", err)
	}
	if _, err := dep.Agent("nowhere"); err == nil {
		t.Error("unknown agent should fail")
	}
}

func TestDeployRequiresAllProcesses(t *testing.T) {
	sys, err := safeadapt.PaperCaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Deploy(map[string]safeadapt.LocalProcess{
		paper.ProcessServer: &nopProcess{},
	}, safeadapt.DeployOptions{})
	if err == nil {
		t.Error("missing processes should fail deployment")
	}
}

func TestFromJSON(t *testing.T) {
	raw := []byte(`{
		"name": "tiny",
		"components": [
			{"name": "A", "process": "p"},
			{"name": "B", "process": "p"}
		],
		"invariants": [
			{"name": "one", "kind": "structural", "predicate": "oneof(A, B)"}
		],
		"actions": [
			{"id": "S", "operation": "A -> B", "costMillis": 5}
		],
		"source": ["A"],
		"target": ["B"]
	}`)
	sys, err := safeadapt.FromJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	path, err := sys.PlanRequest()
	if err != nil {
		t.Fatal(err)
	}
	if len(path.Steps) != 1 || path.Steps[0].Action.ID != "S" {
		t.Errorf("path = %s", path)
	}
	if _, err := safeadapt.FromJSON([]byte("nope")); err == nil {
		t.Error("bad JSON should fail")
	}
}
