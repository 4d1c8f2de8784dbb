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

	// Re-pinned when a process the step has no operation for stopped being
	// blocked (adapters.SocketProcess and vproc share the rule): the server
	// can emit during the four client-only steps of the MAP, so every wait
	// of those steps has one more alternative. The exhaustive runs grow
	// (the old count beside each); the sweeps drive the same schedules,
	// crashes and takeovers through executions a few events longer or
	// shorter. The self-tests still object with the sender live.
	for _, tc := range []struct {
		name string
		got  counts
		want counts
	}{
		{"check -depth 6", of(paper6.Explore()), counts{states: 144491, schedules: 2596}},                                                       // was 86,607 / 1,564
		{"check -depth 6 -packets 3", of(paper6p3.Explore()), counts{states: 420543, schedules: 7482}},                                          // was 223,047 / 4,025
		{"check -depth 6 -fuzz 1000", of(paper6.Fuzz(1, 1000)), counts{states: 46314, schedules: 1000}},                                         // was 46,346
		{"check -depth 6 -crash 2", of(paper6.CrashSweep(1, 2)), counts{states: 13405, schedules: 244, crashes: 228}},                           // was 13,304
		{"check -depth 4 -churn 2", of(paper4.ChurnSweep(1, 2)), counts{states: 27631, schedules: 489, crashes: 453, takeovers: 678}},           // was 27,515
		{"check -fleet -depth 4", of(fleet4.Explore()), counts{states: 16382, schedules: 281}},                                                  // was 15,737 / 270
		{"check -fleet -depth 4 -crash 2", of(fleet4.CrashSweep(1, 2)), counts{states: 19666, schedules: 300, crashes: 115, coordCrashes: 174}}, // was 19,611
	} {
		if tc.got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, tc.got, tc.want)
		}
	}
}
