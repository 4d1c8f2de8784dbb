package spec

import (
	"reflect"
	"strings"
	"testing"
)

func compiledPaper(t *testing.T) *Compiled {
	t.Helper()
	c, err := PaperSystem().Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestResetPhasesFromDataflow(t *testing.T) {
	c := compiledPaper(t)
	cases := []struct {
		name         string
		participants []string
		want         [][]string
	}{
		{
			// Server-only step (A1): no ordering needed.
			name:         "server only",
			participants: []string{"server"},
			want:         nil,
		},
		{
			// Client-only step (A2/A16): conscript the server first.
			name:         "handheld only",
			participants: []string{"handheld"},
			want:         [][]string{{"server"}, {"handheld"}},
		},
		{
			// Compound step (A14): server, then both clients.
			name:         "all three",
			participants: []string{"handheld", "laptop", "server"},
			want:         [][]string{{"server"}, {"handheld", "laptop"}},
		},
	}
	for _, tc := range cases {
		got := c.ResetPhases(tc.participants)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: ResetPhases = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestResetPhasesNoDataflow(t *testing.T) {
	sys := PaperSystem()
	sys.Dataflow = nil
	c, err := sys.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.ResetPhases([]string{"handheld"}); got != nil {
		t.Errorf("no dataflow must yield nil phases, got %v", got)
	}
}

func TestResetPhasesChainedDataflow(t *testing.T) {
	// A three-stage pipeline: src -> relay -> sink.
	sys := &System{
		Name: "pipeline",
		Components: []ComponentSpec{
			{Name: "A", Process: "src"},
			{Name: "B", Process: "relay"},
			{Name: "C", Process: "sink"},
		},
		Invariants: []InvariantSpec{{Name: "a", Kind: "structural", Predicate: "A"}},
		Actions:    []ActionSpec{},
		Source:     ConfigSpec{Components: []string{"A"}},
		Target:     ConfigSpec{Components: []string{"A"}},
		Dataflow:   []string{"src", "relay"},
	}
	c, err := sys.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// A sink-only step quiesces the whole upstream chain in order.
	got := c.ResetPhases([]string{"sink"})
	want := [][]string{{"src"}, {"relay"}, {"sink"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sink step phases = %v, want %v", got, want)
	}
	// A relay-only step quiesces src first, but not the sink.
	got = c.ResetPhases([]string{"relay"})
	want = [][]string{{"src"}, {"relay"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("relay step phases = %v, want %v", got, want)
	}
	// A src-only step needs no ordering.
	if got := c.ResetPhases([]string{"src"}); got != nil {
		t.Errorf("src step phases = %v, want nil", got)
	}
}

func TestCompileRejectsUnknownDataflowProcess(t *testing.T) {
	sys := PaperSystem()
	sys.Dataflow = []string{"server", "mainframe"}
	if _, err := sys.Compile(); err == nil {
		t.Error("dataflow naming an unknown process must fail")
	}
}

// TestCompileRejectsRepeatedDataflowProcess: a process named twice would
// be reset in two phases of one step and never acknowledge the second, so
// every downstream step would time out and roll back.
func TestCompileRejectsRepeatedDataflowProcess(t *testing.T) {
	sys := PaperSystem()
	sys.Dataflow = []string{"server", "server"}
	_, err := sys.Compile()
	if err == nil || !strings.Contains(err.Error(), `"server"`) {
		t.Errorf("dataflow naming server twice: err = %v, want one naming the process", err)
	}
}
