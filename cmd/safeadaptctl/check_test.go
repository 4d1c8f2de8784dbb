package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckCommand(t *testing.T) {
	out := runCmd(t, "check", "-depth", "3")
	for _, want := range []string{
		"built-in case study",
		"exhaustive: depth 3",
		"states explored:",
		"distinct schedules:",
		"no safety violations",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("check output missing %q:\n%s", want, out)
		}
	}
}

func TestCheckFuzz(t *testing.T) {
	out := runCmd(t, "check", "-depth", "2", "-fuzz", "25", "-seed", "7")
	if !strings.Contains(out, "fuzz: 25 schedules from seed 7") {
		t.Errorf("check -fuzz output missing fuzz header:\n%s", out)
	}
	if !strings.Contains(out, "no safety violations") {
		t.Errorf("check -fuzz found violations:\n%s", out)
	}
}

func TestCheckSelfTest(t *testing.T) {
	out := runCmd(t, "check", "-selftest", "-depth", "4", "-faults", "-1")
	if !strings.Contains(out, "self-test passed: violation found and replayed") {
		t.Errorf("self-test did not pass:\n%s", out)
	}
	if !strings.Contains(out, "[ccs]") {
		t.Errorf("self-test violation should be a ccs cut:\n%s", out)
	}
}

func TestCheckReplay(t *testing.T) {
	out := runCmd(t, "check", "-replay", "0")
	if !strings.Contains(out, "replay [0]:") {
		t.Errorf("replay output missing header:\n%s", out)
	}
	if !strings.Contains(out, "no safety violations") {
		t.Errorf("replay of the happy path should be clean:\n%s", out)
	}
}

func TestCheckFleet(t *testing.T) {
	out := runCmd(t, "check", "-fleet", "-depth", "3", "-crash", "0")
	for _, want := range []string{
		"built-in fleet plane (1 root, 2 coordinators, 4 agents)",
		"coordinator crashes:",
		"no safety violations",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("check -fleet output missing %q:\n%s", want, out)
		}
	}
}

func TestCheckBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"check", "-replay", "1,x"}, &sb); err == nil {
		t.Error("malformed -replay schedule should fail")
	}
	if err := run([]string{"check", "-f", "/nonexistent.json"}, &sb); err == nil {
		t.Error("missing spec file should fail")
	}
}

func TestCheckUsageMentionsCheck(t *testing.T) {
	var sb strings.Builder
	err := run(nil, &sb)
	if err == nil || !strings.Contains(err.Error(), "check") {
		t.Errorf("usage should mention check: %v", err)
	}
}

// TestCheckTaglessTemplate: the case study with its codec tags stripped
// declares no traffic, so check -f explores the protocol alone — and
// exactly as many states and schedules as it always has.
func TestCheckTaglessTemplate(t *testing.T) {
	var sys map[string]any
	if err := json.Unmarshal([]byte(runCmd(t, "template")), &sys); err != nil {
		t.Fatal(err)
	}
	for _, c := range sys["components"].([]any) {
		delete(c.(map[string]any), "emits")
		delete(c.(map[string]any), "accepts")
	}
	data, err := json.Marshal(sys)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tagless.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCmd(t, "check", "-depth", "6", "-f", path)
	for _, want := range []string{
		"(protocol-level model)",
		"states explored:    10449\n",
		"distinct schedules: 192\n",
		"violations:         0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("check -f over the tagless template missing %q:\n%s", want, out)
		}
	}
}
