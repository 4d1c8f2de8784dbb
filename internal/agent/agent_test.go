package agent_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/agent"
	"repro/internal/paper"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// fakeProc is a scripted LocalProcess.
type fakeProc struct {
	mu          sync.Mutex
	calls       []string
	resetErr    error
	resetSleep  time.Duration
	resetHook   func(ctx context.Context) error // when set, Reset is this
	inActionErr error
	resumeErrs  int // fail Resume this many times
	postErr     error
	posted      chan struct{} // when set, receives once per PostAction
	applied     [][]action.Op
	rolledBack  int
}

func (f *fakeProc) record(s string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, s)
}

func (f *fakeProc) Calls() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.calls))
	copy(out, f.calls)
	return out
}

func (f *fakeProc) PreAction(protocol.Step, []action.Op) error {
	f.record("pre")
	return nil
}

func (f *fakeProc) Reset(ctx context.Context, _ protocol.Step) error {
	f.record("reset")
	if f.resetHook != nil {
		return f.resetHook(ctx)
	}
	if f.resetSleep > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(f.resetSleep):
		}
	}
	return f.resetErr
}

func (f *fakeProc) InAction(_ protocol.Step, ops []action.Op) error {
	f.record("in")
	if f.inActionErr != nil {
		return f.inActionErr
	}
	f.mu.Lock()
	f.applied = append(f.applied, ops)
	f.mu.Unlock()
	return nil
}

func (f *fakeProc) Resume(protocol.Step) error {
	f.record("resume")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.resumeErrs > 0 {
		f.resumeErrs--
		return errTest("scripted resume failure")
	}
	return nil
}

func (f *fakeProc) PostAction(protocol.Step, []action.Op) error {
	f.record("post")
	if f.posted != nil {
		f.posted <- struct{}{}
	}
	return f.postErr
}

// errTest is a tiny error type avoiding an errors import collision.
type errTest string

func (e errTest) Error() string { return string(e) }

func (f *fakeProc) Rollback(_ protocol.Step, _ []action.Op, applied bool) error {
	f.record("rollback")
	f.mu.Lock()
	f.rolledBack++
	f.mu.Unlock()
	return nil
}

// harness wires one agent to a bus plus a manager-side endpoint.
type harness struct {
	bus   *transport.Bus
	mgr   transport.Endpoint
	agent *agent.Agent
	proc  *fakeProc
}

func newHarness(t *testing.T, proc *fakeProc) *harness {
	t.Helper()
	bus := transport.NewBus()
	mgrEP, err := bus.Endpoint(protocol.ManagerName)
	if err != nil {
		t.Fatal(err)
	}
	agEP, err := bus.Endpoint(paper.ProcessHandheld)
	if err != nil {
		t.Fatal(err)
	}
	reg := paper.MustScenario().Registry
	ag, err := agent.New(paper.ProcessHandheld, agEP, proc, agent.Options{
		ResetTimeout: 200 * time.Millisecond,
		ProcessOf: func(c string) string {
			p, _ := reg.ProcessOf(c)
			return p
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	go ag.Run()
	h := &harness{bus: bus, mgr: mgrEP, agent: ag, proc: proc}
	t.Cleanup(func() {
		ag.Close()
		_ = bus.Close()
	})
	return h
}

func (h *harness) send(t *testing.T, typ protocol.MsgType, step protocol.Step) {
	t.Helper()
	if err := h.mgr.Send(protocol.Message{Type: typ, To: paper.ProcessHandheld, Step: step}); err != nil {
		t.Fatalf("send %v: %v", typ, err)
	}
}

func (h *harness) expect(t *testing.T, typ protocol.MsgType) protocol.Message {
	t.Helper()
	timer := time.NewTimer(2 * time.Second)
	defer timer.Stop()
	for {
		select {
		case msg, ok := <-h.mgr.Inbox():
			if !ok {
				t.Fatal("manager inbox closed")
			}
			if msg.Type == typ {
				return msg
			}
			t.Fatalf("expected %v, got %v (%s)", typ, msg.Type, msg.Error)
		case <-timer.C:
			t.Fatalf("timed out waiting for %v", typ)
		}
	}
}

func singleStep() protocol.Step {
	return protocol.Step{
		PathIndex:    0,
		Attempt:      1,
		ActionID:     "A2",
		Ops:          []action.Op{{Kind: action.Replace, Old: "D1", New: "D2"}},
		Participants: []string{paper.ProcessHandheld},
		FromVector:   "0100101",
		ToVector:     "0101001",
	}
}

func multiStep() protocol.Step {
	s := singleStep()
	s.Participants = []string{paper.ProcessHandheld, paper.ProcessServer}
	return s
}

// TestAgentStateDiagramSingleProcess verifies the Fig. 1 state sequence
// including the single-process shortcut: the agent resumes directly from
// adapted without waiting for a resume message.
func TestAgentStateDiagramSingleProcess(t *testing.T) {
	proc := &fakeProc{posted: make(chan struct{}, 1)}
	h := newHarness(t, proc)

	h.send(t, protocol.MsgReset, singleStep())
	h.expect(t, protocol.MsgResetDone)
	h.expect(t, protocol.MsgAdaptDone)
	h.expect(t, protocol.MsgResumeDone)

	wantStates := []agent.State{
		agent.StateResetting, agent.StateSafe, agent.StateAdapted,
		agent.StateResuming, agent.StateRunning,
	}
	trace := h.agent.Trace()
	if len(trace) != len(wantStates) {
		t.Fatalf("trace has %d transitions: %+v", len(trace), trace)
	}
	for i, tr := range trace {
		if tr.To != wantStates[i] {
			t.Errorf("transition %d to %v, want %v", i, tr.To, wantStates[i])
		}
	}
	// Hook order per Fig. 1: pre-action, reset, in-action, resume,
	// post-action. The post-action runs after "resume done" is sent.
	select {
	case <-proc.posted:
	case <-time.After(5 * time.Second):
		t.Fatal("post-action never ran")
	}
	want := []string{"pre", "reset", "in", "resume", "post"}
	got := proc.Calls()
	if len(got) != len(want) {
		t.Fatalf("calls = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("calls = %v, want %v", got, want)
		}
	}
}

// TestAgentStateDiagramMultiProcess: with multiple participants the agent
// must stay blocked in adapted until the manager's resume.
func TestAgentStateDiagramMultiProcess(t *testing.T) {
	proc := &fakeProc{}
	h := newHarness(t, proc)
	step := multiStep()

	h.send(t, protocol.MsgReset, step)
	h.expect(t, protocol.MsgResetDone)
	h.expect(t, protocol.MsgAdaptDone)

	// Must be parked in adapted, not resumed.
	time.Sleep(50 * time.Millisecond)
	if s := h.agent.State(); s != agent.StateAdapted {
		t.Fatalf("agent state = %v, want adapted", s)
	}

	h.send(t, protocol.MsgResume, step)
	h.expect(t, protocol.MsgResumeDone)
	if s := h.agent.State(); s != agent.StateRunning {
		t.Fatalf("agent state = %v, want running", s)
	}
}

// TestAgentFailToReset: a Reset that exceeds the timeout produces a
// reset-failed report, a rollback of the pre-action, and a return to
// running (Sec. 4.4 fail-to-reset).
func TestAgentFailToReset(t *testing.T) {
	proc := &fakeProc{resetSleep: time.Second} // beyond the 200ms timeout
	h := newHarness(t, proc)

	h.send(t, protocol.MsgReset, multiStep())
	msg := h.expect(t, protocol.MsgResetFailed)
	if msg.Error == "" {
		t.Error("reset-failed should carry an error description")
	}
	if s := h.agent.State(); s != agent.StateRunning {
		t.Errorf("agent state = %v, want running after fail-to-reset", s)
	}
	if proc.rolledBack != 1 {
		t.Errorf("rollbacks = %d, want 1", proc.rolledBack)
	}
}

// TestAgentInActionFailureAwaitsRollback: an in-action failure reports
// adapt-failed and leaves the process blocked until the manager commands
// rollback.
func TestAgentInActionFailureAwaitsRollback(t *testing.T) {
	proc := &fakeProc{inActionErr: errors.New("boom")}
	h := newHarness(t, proc)
	step := multiStep()

	h.send(t, protocol.MsgReset, step)
	h.expect(t, protocol.MsgResetDone)
	h.expect(t, protocol.MsgAdaptFailed)
	if s := h.agent.State(); s != agent.StateSafe {
		t.Fatalf("agent state = %v, want safe (blocked awaiting rollback)", s)
	}

	h.send(t, protocol.MsgRollback, step)
	h.expect(t, protocol.MsgRollbackDone)
	if s := h.agent.State(); s != agent.StateRunning {
		t.Errorf("agent state = %v, want running after rollback", s)
	}
}

// TestAgentRollbackAfterInAction: rollback in the adapted state must undo
// the applied in-action (inActionApplied=true) before resuming.
func TestAgentRollbackAfterInAction(t *testing.T) {
	proc := &fakeProc{}
	h := newHarness(t, proc)
	step := multiStep()

	h.send(t, protocol.MsgReset, step)
	h.expect(t, protocol.MsgResetDone)
	h.expect(t, protocol.MsgAdaptDone)

	h.send(t, protocol.MsgRollback, step)
	h.expect(t, protocol.MsgRollbackDone)
	if proc.rolledBack != 1 {
		t.Errorf("rollbacks = %d, want 1", proc.rolledBack)
	}
	if s := h.agent.State(); s != agent.StateRunning {
		t.Errorf("agent state = %v", s)
	}
}

// TestAgentDuplicateResetReacknowledges: a duplicate reset for the same
// (pathIndex, attempt) must re-announce status instead of redoing work.
func TestAgentDuplicateResetReacknowledges(t *testing.T) {
	proc := &fakeProc{}
	h := newHarness(t, proc)
	step := multiStep()

	h.send(t, protocol.MsgReset, step)
	h.expect(t, protocol.MsgResetDone)
	h.expect(t, protocol.MsgAdaptDone)

	h.send(t, protocol.MsgReset, step)      // duplicate
	h.expect(t, protocol.MsgAdaptDone)      // re-announce, no extra work
	if got := len(proc.Calls()); got != 3 { // pre, reset, in — not repeated
		t.Errorf("calls = %v", proc.Calls())
	}
}

// TestAgentDuplicateResumeReacknowledges: duplicate resumes after
// completion must be re-acknowledged so a manager retrying a lost
// resume-done can make progress.
func TestAgentDuplicateResumeReacknowledges(t *testing.T) {
	proc := &fakeProc{}
	h := newHarness(t, proc)
	step := multiStep()

	h.send(t, protocol.MsgReset, step)
	h.expect(t, protocol.MsgResetDone)
	h.expect(t, protocol.MsgAdaptDone)
	h.send(t, protocol.MsgResume, step)
	h.expect(t, protocol.MsgResumeDone)

	h.send(t, protocol.MsgResume, step)
	h.expect(t, protocol.MsgResumeDone)
}

// TestAgentRollbackWhenIdleAcks: rollback for an unknown step must be
// acknowledged idempotently (the manager rolls back all participants even
// if some never received reset).
func TestAgentRollbackWhenIdleAcks(t *testing.T) {
	proc := &fakeProc{}
	h := newHarness(t, proc)
	h.send(t, protocol.MsgRollback, multiStep())
	h.expect(t, protocol.MsgRollbackDone)
	if proc.rolledBack != 0 {
		t.Error("idle rollback must not invoke the process hook")
	}
}

func TestAgentOptionsValidation(t *testing.T) {
	bus := transport.NewBus()
	defer func() { _ = bus.Close() }()
	ep, err := bus.Endpoint("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.New("", ep, &fakeProc{}, agent.Options{ProcessOf: func(string) string { return "" }}); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := agent.New("x", nil, &fakeProc{}, agent.Options{ProcessOf: func(string) string { return "" }}); err == nil {
		t.Error("nil endpoint should fail")
	}
	if _, err := agent.New("x", ep, nil, agent.Options{ProcessOf: func(string) string { return "" }}); err == nil {
		t.Error("nil process should fail")
	}
	if _, err := agent.New("x", ep, &fakeProc{}, agent.Options{}); err == nil {
		t.Error("missing ProcessOf should fail")
	}
}

func (f *fakeProc) rolledBackCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rolledBack
}
