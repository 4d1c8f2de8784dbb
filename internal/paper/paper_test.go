package paper

import (
	"testing"
	"time"
)

func TestScenarioConsistency(t *testing.T) {
	s := MustScenario()
	if s.Registry.Len() != 7 {
		t.Errorf("components = %d", s.Registry.Len())
	}
	if len(s.Actions) != 17 {
		t.Errorf("actions = %d", len(s.Actions))
	}
	if got := s.Registry.BitVector(s.Source); got != "0100101" { // (D4, D1, E1)
		t.Errorf("source = %s", got)
	}
	if got := s.Registry.BitVector(s.Target); got != "1010010" { // (D5, D3, E2)
		t.Errorf("target = %s", got)
	}
	for _, a := range s.Actions {
		if err := a.Validate(s.Registry); err != nil {
			t.Errorf("action %s invalid: %v", a.ID, err)
		}
	}
}

func TestTable1VectorsAreTheSafeSet(t *testing.T) {
	s := MustScenario()
	safe := s.Invariants.SafeConfigs()
	if len(safe) != len(Table1Vectors) {
		t.Fatalf("safe set size %d, Table 1 has %d rows", len(safe), len(Table1Vectors))
	}
	want := make(map[string]bool, len(Table1Vectors))
	for _, v := range Table1Vectors {
		want[v] = true
	}
	for _, c := range safe {
		if !want[s.Registry.BitVector(c)] {
			t.Errorf("safe configuration %s not in Table 1", s.Registry.BitVector(c))
		}
	}
}

func TestProcessesMatchFigure3(t *testing.T) {
	reg := MustScenario().Registry
	wants := map[string]string{
		"E1": ProcessServer, "E2": ProcessServer,
		"D1": ProcessHandheld, "D2": ProcessHandheld, "D3": ProcessHandheld,
		"D4": ProcessLaptop, "D5": ProcessLaptop,
	}
	for comp, proc := range wants {
		got, err := reg.ProcessOf(comp)
		if err != nil || got != proc {
			t.Errorf("ProcessOf(%s) = %s, %v; want %s", comp, got, err, proc)
		}
	}
}

func TestCostsMatchTable2(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	costs := map[string]time.Duration{
		"A1": ms(10), "A2": ms(10), "A3": ms(10), "A4": ms(10), "A5": ms(10),
		"A6": ms(100), "A7": ms(100), "A8": ms(100), "A9": ms(100),
		"A10": ms(50), "A11": ms(50), "A12": ms(50),
		"A13": ms(150), "A14": ms(150), "A15": ms(150),
		"A16": ms(10), "A17": ms(10),
	}
	for _, a := range MustScenario().Actions {
		if a.Cost != costs[a.ID] {
			t.Errorf("%s cost = %v, want %v", a.ID, a.Cost, costs[a.ID])
		}
	}
}

func TestMAPConstants(t *testing.T) {
	if MAPCost != 50*time.Millisecond {
		t.Errorf("MAPCost = %v", MAPCost)
	}
	if len(MAPActionIDs) != 5 {
		t.Errorf("MAPActionIDs = %v", MAPActionIDs)
	}
	if len(Figure4Edges) != 16 {
		t.Errorf("Figure4Edges has %d entries", len(Figure4Edges))
	}
}
