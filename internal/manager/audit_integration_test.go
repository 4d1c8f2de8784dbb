package manager_test

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/manager"
	"repro/internal/paper"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// auditStack checks the manager trace and every agent trace against the
// paper's figures.
func auditStack(t *testing.T, s *stack) {
	t.Helper()
	for _, issue := range audit.ManagerTrace(s.mgr.Trace()) {
		t.Errorf("manager conformance: %s", issue)
	}
	for name, ag := range s.agents {
		for _, issue := range audit.AgentTrace(ag.Trace()) {
			t.Errorf("agent %s conformance: %s", name, issue)
		}
	}
}

// TestAuditCleanRun: the clean paper scenario conforms to Figs. 1-2 and
// the result invariants.
func TestAuditCleanRun(t *testing.T) {
	plan, src, tgt := paperPlanner(t)
	s := newStack(t, plan, manager.Options{})
	res, err := s.mgr.Execute(src, tgt)
	if err != nil || !res.Completed {
		t.Fatalf("Execute: %v %+v", err, res)
	}
	auditStack(t, s)
	for _, issue := range audit.Result(plan.Registry(), res, tgt) {
		t.Errorf("result conformance: %s", issue)
	}
}

// TestAuditRetryAndRollback: a run with transient reset and in-action
// failures still walks only drawn transitions and keeps the rollback
// chaining invariant.
func TestAuditRetryAndRollback(t *testing.T) {
	plan, src, tgt := paperPlanner(t)
	s := newStack(t, plan, manager.Options{})
	s.scripted(t, paper.ProcessHandheld).failReset["A2"] = 1
	s.scripted(t, paper.ProcessLaptop).failInAction["A17"] = 1

	res, err := s.mgr.Execute(src, tgt)
	if err != nil || !res.Completed {
		t.Fatalf("Execute: %v %+v", err, res)
	}
	auditStack(t, s)
	for _, issue := range audit.Result(plan.Registry(), res, tgt) {
		t.Errorf("result conformance: %s", issue)
	}
}

// TestAuditWithMessageLoss: message loss (before and after the point of
// no return) must not drive either FSM off the drawn transitions.
func TestAuditWithMessageLoss(t *testing.T) {
	plan, src, tgt := paperPlanner(t)
	s := newStack(t, plan, manager.Options{})
	s.bus.SetFault(transport.DropSequence(1, transport.MatchType(protocol.MsgResetDone)))

	res, err := s.mgr.Execute(src, tgt)
	if err != nil || !res.Completed {
		t.Fatalf("Execute: %v %+v", err, res)
	}
	s.bus.SetFault(nil)
	auditStack(t, s)
	for _, issue := range audit.Result(plan.Registry(), res, tgt) {
		t.Errorf("result conformance: %s", issue)
	}
}

// TestAuditUserIntervention: even the worst-case ladder walk (everything
// failing, parked for the user) stays conformant.
func TestAuditUserIntervention(t *testing.T) {
	plan, src, tgt := paperPlanner(t)
	s := newStack(t, plan, manager.Options{MaxAlternatives: 6})
	hh := s.scripted(t, paper.ProcessHandheld)
	for _, id := range []string{"A2", "A3", "A4", "A6", "A7", "A8", "A10", "A11", "A12", "A13", "A14", "A15"} {
		hh.failReset[id] = -1
	}
	res, err := s.mgr.Execute(src, tgt)
	if err == nil {
		t.Fatalf("expected failure, got %+v", res)
	}
	auditStack(t, s)
	// Result audit with Completed=false still checks chaining.
	for _, issue := range audit.Result(plan.Registry(), res, tgt) {
		t.Errorf("result conformance: %s", issue)
	}
}

// TestTraceBoundedOverTenThousandAdaptations: a long-lived deployment's
// transition traces stop growing — each is cut only where its owner
// leaves running — and what is retained still conforms to Figs. 1-2 and
// holds the latest adaptation whole.
func TestTraceBoundedOverTenThousandAdaptations(t *testing.T) {
	const maxTrace = 4096 // manager.maxTrace and agent.maxTrace
	plan, src, tgt := paperPlanner(t)
	s := newStack(t, plan, manager.Options{})
	var perAdapt int
	for i := 0; i < 10000; i++ {
		res, err := s.mgr.Execute(src, tgt)
		if err != nil || !res.Completed {
			t.Fatalf("adaptation %d: %v %+v", i, err, res)
		}
		if i == 0 {
			perAdapt = len(s.mgr.Trace())
		}
	}
	auditStack(t, s)
	tr := s.mgr.Trace()
	if len(tr) < perAdapt || len(tr) >= maxTrace+perAdapt {
		t.Errorf("manager retains %d transitions after 10,000 adaptations of %d each, want [%d, %d)",
			len(tr), perAdapt, perAdapt, maxTrace+perAdapt)
	}
	if last := tr[len(tr)-1]; last.To != manager.StateRunning {
		t.Errorf("manager trace ends in %v, want running", last.To)
	}
	for name, ag := range s.agents {
		// An agent takes part in at most every step, a handful of
		// transitions each.
		if n := len(ag.Trace()); n == 0 || n >= maxTrace+perAdapt {
			t.Errorf("agent %s retains %d transitions, want (0, %d)", name, n, maxTrace+perAdapt)
		}
	}
}
