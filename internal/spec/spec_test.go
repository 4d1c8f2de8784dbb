package spec

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestPaperSystemCompiles(t *testing.T) {
	c, err := PaperSystem().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Registry.Len() != 7 {
		t.Errorf("components = %d", c.Registry.Len())
	}
	if len(c.Actions) != 17 {
		t.Errorf("actions = %d", len(c.Actions))
	}
	if got := c.Registry.BitVector(c.Source); got != "0100101" {
		t.Errorf("source = %s", got)
	}
	if got := c.Registry.BitVector(c.Target); got != "1010010" {
		t.Errorf("target = %s", got)
	}
	if safe := c.Invariants.SafeConfigs(); len(safe) != 8 {
		t.Errorf("safe set = %d, want 8", len(safe))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := PaperSystem()
	data, err := json.MarshalIndent(orig, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	c, err := parsed.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Actions) != 17 || c.Registry.Len() != 7 {
		t.Error("round trip lost content")
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sys.json")
	data, err := json.Marshal(PaperSystem())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compile(); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestConfigSpecForms(t *testing.T) {
	// Bare string, bare array, and object forms all parse.
	cases := []string{
		`{"name":"x","components":[{"name":"A","process":"p"}],
		  "invariants":[{"name":"i","kind":"structural","predicate":"A"}],
		  "actions":[],"source":"1","target":"1"}`,
		`{"name":"x","components":[{"name":"A","process":"p"}],
		  "invariants":[{"name":"i","kind":"structural","predicate":"A"}],
		  "actions":[],"source":["A"],"target":["A"]}`,
		`{"name":"x","components":[{"name":"A","process":"p"}],
		  "invariants":[{"name":"i","kind":"structural","predicate":"A"}],
		  "actions":[],"source":{"vector":"1"},"target":{"components":["A"]}}`,
	}
	for i, raw := range cases {
		s, err := Parse([]byte(raw))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		c, err := s.Compile()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if c.Source != c.Target {
			t.Errorf("case %d: source != target", i)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	base := func() *System { return PaperSystem() }

	noComponents := base()
	noComponents.Components = nil
	if _, err := noComponents.Compile(); err == nil {
		t.Error("no components should fail")
	}

	badInvariantKind := base()
	badInvariantKind.Invariants[0].Kind = "magical"
	if _, err := badInvariantKind.Compile(); err == nil {
		t.Error("unknown invariant kind should fail")
	}

	badPredicate := base()
	badPredicate.Invariants[0].Predicate = "E1 &&& D1"
	if _, err := badPredicate.Compile(); err == nil {
		t.Error("bad predicate should fail")
	}

	unknownComponent := base()
	unknownComponent.Invariants[0].Predicate = "Z9"
	if _, err := unknownComponent.Compile(); err == nil {
		t.Error("predicate over unknown component should fail")
	}

	badAction := base()
	badAction.Actions[0].Operation = "E1 <- E2"
	if _, err := badAction.Compile(); err == nil {
		t.Error("bad operation notation should fail")
	}

	negCost := base()
	negCost.Actions[0].CostMillis = -1
	if _, err := negCost.Compile(); err == nil {
		t.Error("negative cost should fail")
	}

	badSource := base()
	badSource.Source = ConfigSpec{Vector: "111"}
	if _, err := badSource.Compile(); err == nil {
		t.Error("wrong-length source vector should fail")
	}

	emptySource := base()
	emptySource.Source = ConfigSpec{}
	if _, err := emptySource.Compile(); err == nil {
		t.Error("empty source should fail")
	}

	doubleSource := base()
	doubleSource.Source = ConfigSpec{Vector: "0100101", Components: []string{"E1"}}
	if _, err := doubleSource.Compile(); err == nil {
		t.Error("both vector and components should fail")
	}
}

func TestParseBadJSON(t *testing.T) {
	if _, err := Parse([]byte("{{{")); err == nil {
		t.Error("malformed JSON should fail")
	}
	if _, err := Parse([]byte(`{"source": 42}`)); err == nil {
		t.Error("numeric configuration should fail")
	}
}

func TestCompileCodecTags(t *testing.T) {
	c, err := PaperSystem().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Encodes["E2"] != "des128" || !reflect.DeepEqual(c.Decodes["D2"], []string{"des64", "des128"}) {
		t.Errorf("Encodes = %v, Decodes = %v", c.Encodes, c.Decodes)
	}

	both := PaperSystem()
	both.Components[2].Emits = "des64" // D1 already accepts des64
	if _, err := both.Compile(); err == nil || !strings.Contains(err.Error(), `"D1"`) {
		t.Errorf("a component that emits and accepts: err = %v", err)
	}

	empty := PaperSystem()
	empty.Components[3].Accepts = []string{"des64", ""}
	if _, err := empty.Compile(); err == nil || !strings.Contains(err.Error(), `"D2"`) {
		t.Errorf("an empty accepted tag: err = %v", err)
	}
}
