package agent

import (
	"context"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// resetProc is a LocalProcess whose Reset is the function itself.
type resetProc func(ctx context.Context) error

func (resetProc) PreAction(protocol.Step, []action.Op) error         { return nil }
func (f resetProc) Reset(ctx context.Context, _ protocol.Step) error { return f(ctx) }
func (resetProc) InAction(protocol.Step, []action.Op) error          { return nil }
func (resetProc) Resume(protocol.Step) error                         { return nil }
func (resetProc) PostAction(protocol.Step, []action.Op) error        { return nil }
func (resetProc) Rollback(protocol.Step, []action.Op, bool) error    { return nil }

// newResetAgent returns an agent, never run, whose process resets with
// reset under an hour's deadline.
func newResetAgent(reset func(ctx context.Context) error) *Agent {
	return &Agent{proc: resetProc(reset), opts: Options{Clock: transport.SystemClock, ResetTimeout: time.Hour}}
}

// TestLateFiringSparesNextReset: a firing of the reset deadline that lost
// the race with its reset's return, and runs only after the next reset has
// armed the timer, leaves that next reset live; the next reset's own firing
// ends it, and it stays ended.
func TestLateFiringSparesNextReset(t *testing.T) {
	var a *Agent
	var next context.Context
	first := true
	a = newResetAgent(func(ctx context.Context) error {
		if first {
			// The deadline fires as Reset returns: its callback is under
			// way, so the stop at Reset's return finds nothing to stop.
			a.rtimer.Stop()
			return nil
		}
		next = ctx
		a.resetExpired() // the first reset's firing, late
		if err := ctx.Err(); err != nil {
			t.Errorf("a late firing of the previous reset ended the next one: %v", err)
		}
		select {
		case <-ctx.Done():
			t.Error("a late firing of the previous reset closed the next one's Done")
		default:
		}
		a.rtimer.Stop()
		a.resetExpired() // this reset's own firing
		return ctx.Err()
	})
	defer func() { a.rtimer.Stop() }()
	if err := a.reset(protocol.Step{}); err != nil {
		t.Fatal(err)
	}
	first = false
	if err := a.reset(protocol.Step{}); err != context.DeadlineExceeded {
		t.Fatalf("after its own firing the reset read %v, want DeadlineExceeded", err)
	}
	if err := next.Err(); err != context.DeadlineExceeded {
		t.Errorf("after Reset returned an expired reset reads %v, want DeadlineExceeded still", err)
	}
	if a.rarmed != 0 {
		t.Errorf("%d armings left outstanding, want 0", a.rarmed)
	}
}

// TestAfterFuncSlots: registrations beyond the fixed slots still run when
// the context ends, a stopped one does not, and a stop reports true only
// the first time and only before the end.
func TestAfterFuncSlots(t *testing.T) {
	ran := make([]bool, 6)
	stops := make([]func() bool, len(ran))
	a := newResetAgent(func(ctx context.Context) error {
		for i := range ran {
			stops[i] = ctx.(*resetCtx).AfterFunc(func() { ran[i] = true })
		}
		if !stops[1]() || stops[1]() {
			t.Error("stop does not report true once, then false")
		}
		return nil
	})
	defer func() { a.rtimer.Stop() }()
	if err := a.reset(protocol.Step{}); err != nil {
		t.Fatal(err)
	}
	for i, r := range ran {
		if r != (i != 1) {
			t.Errorf("registration %d ran: %v", i, r)
		}
	}
	if stops[0]() {
		t.Error("stop after the context ended reports true")
	}
}
