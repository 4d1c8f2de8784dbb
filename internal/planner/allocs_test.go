//go:build !race

package planner

import "testing"

// TestParticipantsAllocs: a step takes its action's participants and
// one-phase wave from the planner without allocating.
func TestParticipantsAllocs(t *testing.T) {
	p, _, _ := paperPlanner(t)
	id := p.Actions()[0].ID
	if n := testing.AllocsPerRun(100, func() { _, _, _ = p.Participants(id) }); n != 0 {
		t.Errorf("Participants allocates %.0f times, want 0", n)
	}
}
