package explore

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
)

// TestFailToResetReplayGolden pins, line for line, the trace of schedule
// [4]: the server's first reset fails, the manager rolls the step back and
// retries it, and the MAP then completes. A change to how a fail-to-reset
// is modelled must leave what the protocol does after it untouched.
func TestFailToResetReplayGolden(t *testing.T) {
	x := mustExplorer(t, Options{})
	trace, err := x.ReplayTrace([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "replay4.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(trace, "\n") + "\n"; got != string(want) {
		t.Errorf("trace of [4] moved:\n%s\nwant:\n%s", got, want)
	}
}

// TestFailToResetRunsTheAgentsDeadline: in schedule [4] the server never
// reaches its safe state. The agent's own reset deadline, armed on the
// virtual clock, ends the reset, so the "reset failed" the manager rolls
// back on carries the context's DeadlineExceeded, and the hour-long
// deadline passes in virtual time only.
func TestFailToResetRunsTheAgentsDeadline(t *testing.T) {
	x := mustExplorer(t, Options{StepTimeout: time.Hour})
	e, err := newExecution(x, &replayChooser{prefix: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	start, wall := e.clock.Now(), time.Now()
	e.run()
	if waited := time.Since(wall); waited > time.Minute {
		t.Errorf("the replay waited %v of wall-clock time", waited)
	}
	if virtual := e.clock.Now().Sub(start); virtual < time.Hour {
		t.Errorf("the virtual clock moved %v, less than the reset deadline", virtual)
	}
	recs, err := e.journal.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var why string
	for _, r := range recs {
		if r.Kind == journal.KindRollback {
			why = r.Detail
			break
		}
	}
	if want := "reset failed from server: reset: " + context.DeadlineExceeded.Error(); why != want {
		t.Errorf("the first rollback's reason is %q, want %q", why, want)
	}
}
