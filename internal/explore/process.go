package explore

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/action"
	"repro/internal/protocol"
)

// vproc is a virtual process: the ground truth of which components
// actually run where, plus the application-level behavior the agent's
// LocalProcess hooks drive. All methods run on the scheduler goroutine.
type vproc struct {
	e    *execution
	name string
	// comps is the set of components actually instantiated here — the
	// ground truth the explorer checks the manager's belief against.
	comps map[string]bool
	// blocked marks the process held in its safe state.
	blocked bool
	// bystander marks a process the current step has no operation for; it
	// is not blocked (the rule adapters.SocketProcess ships).
	bystander bool
	// stuck makes the next Reset never reach the safe state: the agent's
	// own reset deadline ends it (injected fail-to-reset).
	stuck bool
}

func (p *vproc) PreAction(_ protocol.Step, ops []action.Op) error {
	p.bystander = len(ops) == 0
	return nil
}

// Reset drives the process to its safe state: it stops emitting, and —
// its share of the global safe condition — drains every packet already
// in flight toward it while its pre-step decoders still run. A bystander
// drains too and goes on emitting. The DisableDrain mutation hook skips
// the drain, which must make the explorer catch a cut CCS. A stuck process
// waits its agent's ResetTimeout on the virtual clock instead, and returns
// what the agent's timer ended the reset with.
func (p *vproc) Reset(ctx context.Context, protoStep protocol.Step) error {
	if p.stuck {
		p.stuck = false
		return p.e.clock.Sleep(ctx, p.e.x.opts.StepTimeout)
	}
	p.blocked = !p.bystander
	p.e.logf("%s in safe state (step %s, blocked: %v)", p.name, protoStep.ActionID, p.blocked)
	if !p.e.x.opts.DisableDrain {
		p.drainInbound()
	}
	return nil
}

// drainInbound consumes every in-flight packet addressed to this
// process, decoding with the current (pre-in-action) components.
func (p *vproc) drainInbound() {
	for i, f := range p.e.m.Flows {
		if f.To != p.name {
			continue
		}
		for _, pk := range p.e.flows[i] {
			p.e.deliverPacket(i, pk)
		}
		p.e.flows[i] = nil
	}
}

func (p *vproc) InAction(step protocol.Step, ops []action.Op) error {
	p.apply(ops)
	p.e.logf("%s applies in-action %s: now {%s}", p.name, step.ActionID, strings.Join(p.e.componentsOf(p.name), ","))
	return nil
}

func (p *vproc) Resume(step protocol.Step) error {
	p.blocked = false
	p.e.resumed[stepKey{path: step.PathIndex, attempt: step.Attempt, action: step.ActionID}] = true
	p.e.logf("%s resumes after %s", p.name, step.ActionID)
	return nil
}

func (p *vproc) PostAction(protocol.Step, []action.Op) error { return nil }

func (p *vproc) Rollback(step protocol.Step, ops []action.Op, inActionApplied bool) error {
	if inActionApplied {
		// The ground-truth form of the paper's central forbidden transition:
		// undoing an in-action for a step attempt some process already
		// resumed on. Checked at the execution level (not per incarnation),
		// so a stale takeover candidate whose rollback slips past fencing is
		// caught even when its own journal justified the decision.
		if p.e.resumed[stepKey{path: step.PathIndex, attempt: step.Attempt, action: step.ActionID}] {
			p.e.violate("rollback-after-resume", fmt.Sprintf(
				"%s undoes in-action %s (path %d attempt %d) after some process resumed on that attempt",
				p.name, step.ActionID, step.PathIndex, step.Attempt))
		}
		p.applyInverse(ops)
	}
	p.blocked = false
	p.e.logf("%s rolls back %s (in-action applied: %v)", p.name, step.ActionID, inActionApplied)
	return nil
}

func (p *vproc) apply(ops []action.Op) {
	for _, op := range ops {
		switch op.Kind {
		case action.Insert:
			p.comps[op.New] = true
		case action.Remove:
			delete(p.comps, op.Old)
		case action.Replace:
			delete(p.comps, op.Old)
			p.comps[op.New] = true
		}
	}
}

func (p *vproc) applyInverse(ops []action.Op) {
	for i := len(ops) - 1; i >= 0; i-- {
		switch op := ops[i]; op.Kind {
		case action.Insert:
			delete(p.comps, op.New)
		case action.Remove:
			p.comps[op.Old] = true
		case action.Replace:
			delete(p.comps, op.New)
			p.comps[op.Old] = true
		}
	}
}
