//go:build !race

package agent

import (
	"testing"

	"repro/internal/telemetry"
	"repro/internal/transport"
)

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
