package explore

import "testing"

// TestBehaviourContractCounts pins the numbers ROADMAP calls the
// behaviour contract — the deterministic state, schedule and crash
// counts `safeadaptctl check` prints with its default budgets (fault 1,
// packet 1, seed 1), and the exhaustive run once more with three
// packets. A refactor of the virtual world must not move any of them; a
// protocol change that does must say why and update them here and in
// EXPERIMENTS.md together.
func TestBehaviourContractCounts(t *testing.T) {
	type counts struct {
		states, schedules, crashes, takeovers, coordCrashes int
	}
	of := func(rep *Report, err error) counts {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) != 0 || rep.Truncated {
			t.Fatalf("contract run not clean: %d violations, truncated %v, first: %v",
				len(rep.Violations), rep.Truncated, rep.Violations)
		}
		return counts{rep.States, rep.Schedules, rep.Crashes, rep.Takeovers, rep.CoordCrashes}
	}
	budget := func(depth int) Options { return Options{Depth: depth, MaxFaults: 1, MaxPackets: 1} }
	paper6 := mustExplorer(t, budget(6))
	// Three packets: one packet can never put an old-format and a
	// new-format packet on a link at once, which is the case a drain is
	// about.
	paper6p3 := mustExplorer(t, Options{Depth: 6, MaxFaults: 1, MaxPackets: 3})
	paper4 := mustExplorer(t, budget(4))
	fleet4 := mustFleetExplorer(t, budget(4))

	for _, tc := range []struct {
		name string
		got  counts
		want counts
	}{
		{"check -depth 6", of(paper6.Explore()), counts{states: 86607, schedules: 1564}},
		{"check -depth 6 -packets 3", of(paper6p3.Explore()), counts{states: 223047, schedules: 4025}},
		{"check -depth 6 -fuzz 1000", of(paper6.Fuzz(1, 1000)), counts{states: 46346, schedules: 1000}},
		{"check -depth 6 -crash 2", of(paper6.CrashSweep(1, 2)), counts{states: 13304, schedules: 244, crashes: 228}},
		{"check -depth 4 -churn 2", of(paper4.ChurnSweep(1, 2)), counts{states: 27515, schedules: 489, crashes: 453, takeovers: 678}},
		{"check -fleet -depth 4", of(fleet4.Explore()), counts{states: 15737, schedules: 270}},
		{"check -fleet -depth 4 -crash 2", of(fleet4.CrashSweep(1, 2)), counts{states: 19611, schedules: 300, crashes: 115, coordCrashes: 174}},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, tc.got, tc.want)
		}
	}
}
