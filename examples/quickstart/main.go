// Quickstart: declare a small adaptive system, analyze it, and execute a
// safe adaptation through the manager/agent protocol.
//
// The system is a service with two swappable codec components on a
// frontend process and two storage drivers on a backend process. The
// invariants say exactly one of each must be active, and the new codec
// requires the new driver.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	safeadapt "repro"
	"repro/internal/action"
	"repro/internal/protocol"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Describe the system: components, invariants, adaptive actions.
	sys, err := safeadapt.FromJSON([]byte(`{
		"name": "quickstart",
		"components": [
			{"name": "CodecV1",  "process": "frontend"},
			{"name": "CodecV2",  "process": "frontend"},
			{"name": "DiskV1",   "process": "backend"},
			{"name": "DiskV2",   "process": "backend"}
		],
		"invariants": [
			{"name": "one-codec", "kind": "structural", "predicate": "oneof(CodecV1, CodecV2)"},
			{"name": "one-disk",  "kind": "structural", "predicate": "oneof(DiskV1, DiskV2)"},
			{"name": "v2-needs-disk", "kind": "dependency", "predicate": "CodecV2 -> DiskV2"}
		],
		"actions": [
			{"id": "SwapCodec", "operation": "CodecV1 -> CodecV2", "costMillis": 20},
			{"id": "SwapDisk",  "operation": "DiskV1 -> DiskV2",   "costMillis": 10},
			{"id": "SwapBoth",  "operation": "(CodecV1, DiskV1) -> (CodecV2, DiskV2)", "costMillis": 80}
		],
		"source": ["CodecV1", "DiskV1"],
		"target": ["CodecV2", "DiskV2"]
	}`))
	if err != nil {
		return err
	}

	// 2. Analyze: safe configurations and the minimum adaptation path.
	fmt.Println("safe configurations:")
	for _, c := range sys.SafeConfigurations() {
		fmt.Println("  ", sys.FormatConfig(c))
	}
	path, err := sys.PlanRequest()
	if err != nil {
		return err
	}
	// The planner discovers that the disk must be swapped before the
	// codec (CodecV2 -> DiskV2), and that two cheap steps beat the
	// expensive compound swap.
	fmt.Println("minimum adaptation path:", path)

	// 3. Deploy the control plane with per-process hooks and adapt.
	procs := map[string]safeadapt.LocalProcess{
		"frontend": &loggingProcess{name: "frontend"},
		"backend":  &loggingProcess{name: "backend"},
	}
	dep, err := sys.Deploy(procs, safeadapt.DeployOptions{StepTimeout: 2 * time.Second})
	if err != nil {
		return err
	}
	defer dep.Close()

	res, err := dep.Adapt(sys.Source(), sys.Target())
	if err != nil {
		return err
	}
	fmt.Printf("adaptation completed: %v, final configuration %s\n",
		res.Completed, sys.FormatConfig(res.Final))
	if !res.Completed || res.Final != sys.Target() {
		return fmt.Errorf("adaptation incomplete: stopped at %s", sys.FormatConfig(res.Final))
	}
	return nil
}

// loggingProcess is a LocalProcess that narrates the protocol's hooks —
// a real application would block its packet loop in Reset and swap
// component instances in InAction (see examples/videostream).
type loggingProcess struct {
	name string
}

func (p *loggingProcess) PreAction(step protocol.Step, ops []action.Op) error {
	fmt.Printf("  [%s] pre-action for %s: instantiate %v\n", p.name, step.ActionID, newsOf(ops))
	return nil
}

func (p *loggingProcess) Reset(_ context.Context, step protocol.Step) error {
	fmt.Printf("  [%s] reset: blocked in local safe state for %s\n", p.name, step.ActionID)
	return nil
}

func (p *loggingProcess) InAction(step protocol.Step, ops []action.Op) error {
	fmt.Printf("  [%s] in-action %s: apply %v\n", p.name, step.ActionID, ops)
	return nil
}

func (p *loggingProcess) Resume(step protocol.Step) error {
	fmt.Printf("  [%s] resume after %s\n", p.name, step.ActionID)
	return nil
}

func (p *loggingProcess) PostAction(step protocol.Step, _ []action.Op) error {
	fmt.Printf("  [%s] post-action for %s: destroy old components\n", p.name, step.ActionID)
	return nil
}

func (p *loggingProcess) Rollback(step protocol.Step, _ []action.Op, applied bool) error {
	fmt.Printf("  [%s] rollback %s (in-action applied: %v)\n", p.name, step.ActionID, applied)
	return nil
}

func newsOf(ops []action.Op) []string {
	var out []string
	for _, op := range ops {
		if op.New != "" {
			out = append(out, op.New)
		}
	}
	return out
}
