package explore

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/journal"
)

// TestCrashSweepRecoversEverywhere is the crash-torture model check of
// the tentpole claim: killing the manager at EVERY journal record
// boundary of the paper's adaptation — plus mid-fsync at every boundary,
// plus fuzzed schedules layering message faults over each crash — never
// violates a dependency invariant, never cuts a CCS, never deadlocks,
// and every incarnation's trace conforms to Fig. 2.
func TestCrashSweepRecoversEverywhere(t *testing.T) {
	perPoint := 2
	if testing.Short() {
		perPoint = 0
	}
	x := mustExplorer(t, Options{MaxFaults: 1, MaxPackets: 1})
	rep, err := x.CrashSweep(7, perPoint)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("crash sweep found %d violations, first: %v", len(rep.Violations), rep.Violations[0])
	}
	if rep.Truncated {
		t.Fatalf("crash sweep truncated: %+v", rep)
	}
	// The happy path journals a record per protocol decision; the sweep
	// must actually have killed a manager at (almost) every boundary.
	if rep.Crashes < 20 {
		t.Fatalf("suspiciously few manager crashes injected: %d (report %+v)", rep.Crashes, rep)
	}
	t.Logf("swept %d schedules, %d manager crashes recovered, %d states", rep.Schedules, rep.Crashes, rep.States)
}

// TestCrashSweepDeterministic: the sweep is a model check, so the same
// seed must visit exactly the same executions.
func TestCrashSweepDeterministic(t *testing.T) {
	x := mustExplorer(t, Options{MaxFaults: 1, MaxPackets: 1})
	rep1, err := x.CrashSweep(11, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := x.CrashSweep(11, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Schedules != rep2.Schedules || rep1.States != rep2.States || rep1.Crashes != rep2.Crashes {
		t.Fatalf("same seed, different sweeps: %+v vs %+v", rep1, rep2)
	}
}

// TestCrashMidFsyncTornTail kills the manager during an fsync, so the
// journal loses its unsynced tail; the successor must recover from the
// shorter durable prefix and still finish the adaptation under a new
// epoch.
func TestCrashMidFsyncTornTail(t *testing.T) {
	x := mustExplorer(t, Options{})
	e, err := newExecution(x, &replayChooser{})
	if err != nil {
		t.Fatal(err)
	}
	e.armCrash(crashPlan{after: 5, midSync: true})
	e.run()
	if e.mgrCrashes != 1 {
		t.Fatalf("expected exactly one manager crash, got %d", e.mgrCrashes)
	}
	if len(e.violations) != 0 {
		t.Fatalf("torn-tail recovery violated safety: %v", e.violations[0])
	}
	if got := e.mgr.Epoch(); got != 2 {
		t.Fatalf("recovered manager epoch = %d, want 2", got)
	}
	if gt := e.reg.BitVector(e.groundTruth()); gt != e.reg.BitVector(e.m.Target) {
		t.Fatalf("ground truth %s never reached target %s", gt, e.reg.BitVector(e.m.Target))
	}
}

// onCommitGroup installs an append hook that calls fn with the ordinal of
// each commit group as its first record arrives: the manager commits by
// group (a record rides the next commit a send depends on), and a group
// opens whenever a record is appended onto an empty unsynced tail.
func onCommitGroup(e *execution, fn func(group int)) {
	group := 0
	e.journal.AppendHook = func(journal.Record) error {
		if len(e.journal.Unsynced()) == 0 {
			group++
			fn(group)
		}
		return nil
	}
}

// TestCrashMidFsyncLosesWholeGroup kills the manager in the fsync that
// closes each commit group of the happy path in turn, so the whole group —
// adapt-begin + plan + step-begin, or a step-end with the next step-begin,
// or the last step-end with adapt-end — never reaches the disk. The
// successor must finish the adaptation from the shorter prefix, and no
// process may end up with an in-action applied twice.
func TestCrashMidFsyncLosesWholeGroup(t *testing.T) {
	x := mustExplorer(t, Options{})
	probe, err := newExecution(x, &replayChooser{})
	if err != nil {
		t.Fatal(err)
	}
	groups := 0
	onCommitGroup(probe, func(g int) { groups = g })
	probe.run()
	if len(probe.violations) != 0 {
		t.Fatalf("happy path violated safety: %v", probe.violations[0])
	}
	// Five step-begins, five points of no return, one adapt-end.
	if groups != 11 {
		t.Fatalf("happy path commits %d groups, want 11", groups)
	}

	for g := 1; g <= groups; g++ {
		e, err := newExecution(x, &replayChooser{})
		if err != nil {
			t.Fatal(err)
		}
		onCommitGroup(e, func(group int) {
			if group == g {
				e.journal.FailNextSync()
			}
		})
		e.run()
		if e.mgrCrashes != 1 {
			t.Fatalf("group %d: expected exactly one manager crash, got %d", g, e.mgrCrashes)
		}
		if len(e.violations) != 0 {
			t.Fatalf("group %d: recovery violated safety: %v", g, e.violations[0])
		}
		if gt := e.reg.BitVector(e.groundTruth()); gt != e.reg.BitVector(e.m.Target) {
			t.Fatalf("group %d: ground truth %s never reached target %s", g, gt, e.reg.BitVector(e.m.Target))
		}
		// Net in-actions per (process, action): applied minus undone.
		net := map[string]int{}
		for _, line := range e.trace {
			var proc, act string
			if n, _ := fmt.Sscanf(line, "%s applies in-action %s", &proc, &act); n == 2 {
				net[proc+" "+strings.TrimSuffix(act, ":")]++
			} else if n, _ := fmt.Sscanf(line, "%s rolls back %s (in-action applied: true)", &proc, &act); n == 2 && strings.HasSuffix(line, "true)") {
				net[proc+" "+act]--
			}
		}
		if len(net) == 0 {
			t.Fatalf("group %d: the trace shows no in-action", g)
		}
		for who, n := range net {
			if n > 1 {
				t.Errorf("group %d: in-action %s applied %d times", g, who, n)
			}
		}
	}
}

// TestCrashWithLeaseExpiry forces the full self-recovery interleaving:
// the manager dies mid-step, every engaged agent's liveness lease then
// expires (the agents apply the paper's rule on their own), and the
// successor's probes must reconcile with what the agents already did.
func TestCrashWithLeaseExpiry(t *testing.T) {
	x := mustExplorer(t, Options{})
	// Find a boundary where at least one agent holds a step, by scanning
	// the happy path until a crash there yields a lease choice; forcing
	// every lease choice to 1 makes all engaged agents roll back locally.
	covered := 0
	for k := 3; k <= 12; k++ {
		e, err := newExecution(x, &replayChooser{prefix: allOnes(256)})
		if err != nil {
			t.Fatal(err)
		}
		e.armCrash(crashPlan{after: k})
		e.run()
		if len(e.violations) != 0 {
			t.Fatalf("crash at boundary %d with lease expiry violated safety: %v", k, e.violations[0])
		}
		if e.mgrCrashes == 1 {
			covered++
		}
	}
	if covered == 0 {
		t.Fatal("no boundary in 3..12 actually crashed the manager")
	}
}

// allOnes builds a choice prefix of n ones. Used to force every binary
// fault choice (notably lease expiry) down the faulty branch; scheduling
// choices with more alternatives take alternative 1, which is still a
// delivery in canonical order.
func allOnes(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = 1
	}
	return s
}
