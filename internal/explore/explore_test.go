package explore

import (
	"reflect"
	"testing"

	"repro/internal/spec"
	"repro/internal/telemetry"
)

func mustExplorer(t *testing.T, opts Options) *Explorer {
	t.Helper()
	m, err := PaperModel()
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestHappyPathNoViolations: the all-zeros schedule is the fault-free
// execution of the paper's MAP and must satisfy every safety property.
func TestHappyPathNoViolations(t *testing.T) {
	x := mustExplorer(t, Options{})
	rep, err := x.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("happy path produced violations: %v", rep.Violations)
	}
	if rep.Schedules != 1 || rep.States == 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

// TestReplayIsDeterministic: replaying the same schedule twice yields
// identical traces — the foundation of the replayable -seed contract.
func TestReplayIsDeterministic(t *testing.T) {
	x := mustExplorer(t, Options{})
	tr1, err := x.ReplayTrace([]int{1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := x.ReplayTrace([]int{1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr1, tr2) {
		t.Fatalf("same schedule, different traces:\n%v\nvs\n%v", tr1, tr2)
	}
	if len(tr1) == 0 {
		t.Fatal("empty trace")
	}
}

// TestExhaustiveBoundedExploration: DFS to a modest depth over the
// paper's DES-64 -> DES-128 adaptation, with fault injection, finds no
// safety violation.
func TestExhaustiveBoundedExploration(t *testing.T) {
	depth := 5
	if testing.Short() {
		depth = 3
	}
	tel := telemetry.NewRegistry()
	x := mustExplorer(t, Options{Depth: depth, MaxFaults: 1, MaxPackets: 1, Telemetry: tel})
	rep, err := x.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("bounded exploration found violations: %v", rep.Violations[0])
	}
	if rep.Schedules < 10 {
		t.Fatalf("suspiciously few schedules explored: %+v", rep)
	}
	if got := tel.Counter("explore.schedules").Value(); got != int64(rep.Schedules) {
		t.Fatalf("telemetry schedules = %d, report %d", got, rep.Schedules)
	}
	if got := tel.Counter("explore.states").Value(); got != int64(rep.States) {
		t.Fatalf("telemetry states = %d, report %d", got, rep.States)
	}
	t.Logf("explored %d states across %d schedules", rep.States, rep.Schedules)
}

// TestMutationSelfTest: with the global-safe-condition drain disabled,
// the checker must have teeth — the explorer must find a CCS violation
// and its schedule must replay to the same violation.
func TestMutationSelfTest(t *testing.T) {
	tel := telemetry.NewRegistry()
	x := mustExplorer(t, Options{Depth: 4, MaxFaults: -1, MaxPackets: 1, DisableDrain: true, Telemetry: tel})
	rep, err := x.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("mutation (drain disabled) not detected: the safety checker has no teeth")
	}
	v := rep.Violations[0]
	if v.Kind != "ccs" {
		t.Fatalf("expected a ccs violation first, got %v", v)
	}
	if tel.Counter("explore.violations").Value() == 0 {
		t.Fatal("explore.violations counter not incremented")
	}

	// The reported schedule must reproduce the violation.
	rep2, err := x.Replay(v.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Violations) == 0 {
		t.Fatalf("schedule %v did not reproduce the violation", v.Schedule)
	}
	if rep2.Violations[0].Kind != "ccs" {
		t.Fatalf("replay reproduced a different violation: %v", rep2.Violations[0])
	}
}

// TestFuzzSeedsAreReplayable: the same seed explores the same schedules
// (identical reports), and fault-laden random schedules stay safe.
func TestFuzzSeedsAreReplayable(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 40
	}
	x := mustExplorer(t, Options{MaxFaults: 2, MaxPackets: 2})
	rep1, err := x.Fuzz(42, n)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := x.Fuzz(42, n)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.States != rep2.States || rep1.Schedules != rep2.Schedules {
		t.Fatalf("same seed, different exploration: %+v vs %+v", rep1, rep2)
	}
	if len(rep1.Violations) != 0 {
		t.Fatalf("fuzzing found violations: %v", rep1.Violations[0])
	}
}

// TestDeeperFaultPairs exercises two-fault schedules (dropped replies
// plus forced timeouts interacting with retries and rollbacks) on a
// narrower frontier, where the recovery ladder must still keep every
// intermediate configuration safe.
func TestDeeperFaultPairs(t *testing.T) {
	if testing.Short() {
		t.Skip("two-fault DFS is slow")
	}
	x := mustExplorer(t, Options{Depth: 4, MaxFaults: 2, MaxPackets: -1})
	rep, err := x.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("two-fault exploration found violations: %v", rep.Violations[0])
	}
}

// TestModelOfFlowsDownTheDataflow: with codec tags declared, each
// upstream process sends to the next and the last to every other process;
// without them the model carries no traffic.
func TestModelOfFlowsDownTheDataflow(t *testing.T) {
	sys := &spec.System{
		Name: "pipeline",
		Components: []spec.ComponentSpec{
			{Name: "E", Process: "src", Emits: "k"},
			{Name: "R", Process: "relay", Accepts: []string{"k"}},
			{Name: "A", Process: "sink-a", Accepts: []string{"k"}},
			{Name: "B", Process: "sink-b", Accepts: []string{"k"}},
		},
		Invariants: []spec.InvariantSpec{{Name: "e", Kind: "structural", Predicate: "E"}},
		Source:     spec.ConfigSpec{Components: []string{"E", "R", "A", "B"}},
		Target:     spec.ConfigSpec{Components: []string{"E", "R", "A", "B"}},
		Dataflow:   []string{"src", "relay"},
	}
	c, err := sys.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want := []Flow{{"src", "relay"}, {"relay", "sink-a"}, {"relay", "sink-b"}}
	if m := ModelOf(c); !reflect.DeepEqual(m.Flows, want) || m.Encodes["E"] != "k" || m.ResetPhases == nil {
		t.Errorf("flows = %v, encodes = %v", m.Flows, m.Encodes)
	}

	for i := range sys.Components {
		sys.Components[i].Emits, sys.Components[i].Accepts = "", nil
	}
	if c, err = sys.Compile(); err != nil {
		t.Fatal(err)
	}
	if m := ModelOf(c); m.Flows != nil || m.ResetPhases == nil {
		t.Errorf("a tagless spec: flows = %v", m.Flows)
	}
}
