//go:build !race

package agent

import (
	"context"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// TestResetContextAllocs: a reset that nobody observes allocates its
// context and nothing else, and a context.AfterFunc registration on it —
// what a metasocket's RequestBlock and WaitDrained make — costs no more
// than on a context.WithTimeout context.
func TestResetContextAllocs(t *testing.T) {
	f := func() {}
	register := false
	a := newResetAgent(func(ctx context.Context) error {
		if register {
			context.AfterFunc(ctx, f)()
		}
		return nil
	})
	bare := testing.AllocsPerRun(100, func() { _ = a.reset(protocol.Step{}) })
	defer a.rtimer.Stop()
	if bare != 1 {
		t.Errorf("a reset nobody observes allocates %.0f times, want 1", bare)
	}
	register = true
	withReset := testing.AllocsPerRun(100, func() { _ = a.reset(protocol.Step{}) })
	withTimeout := testing.AllocsPerRun(100, func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		context.AfterFunc(ctx, f)()
		cancel()
	})
	t.Logf("one registration: %.0f allocations on a reset's context, %.0f on context.WithTimeout's", withReset, withTimeout)
	if withReset > withTimeout {
		t.Errorf("a reset with one registration allocates %.0f times, context.WithTimeout with one %.0f", withReset, withTimeout)
	}
}

// TestTransitionAllocs: with live telemetry and no flight recorder
// attached, a state transition records its trace entry and nothing else;
// the text of a state change is built for a flight recorder only.
func TestTransitionAllocs(t *testing.T) {
	a := &Agent{
		name:   "laptop",
		opts:   Options{Clock: transport.SystemClock},
		tel:    telemetry.NewRegistry(),
		state:  StateRunning,
		curKey: "0/1",
		trace:  make([]Transition, 0, 256),
	}
	n := testing.AllocsPerRun(100, func() {
		a.transition(StateResetting, `receive "reset"`)
		a.transition(StateRunning, "[fail to reset] / rollback")
	})
	if n != 0 {
		t.Errorf("two transitions with no flight recorder allocate %.0f times, want 0", n)
	}
}
