package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/protocol"
)

// writeTestJournal writes a WAL that stops mid-step, past the point of
// no return — the most operationally interesting shape to inspect.
func writeTestJournal(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "manager.journal")
	j, err := journal.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	step := protocol.Step{
		ActionID:     "A1",
		PathIndex:    0,
		Attempt:      1,
		Participants: []string{"server", "laptop"},
		FromVector:   "1100",
		ToVector:     "0110",
	}
	recs := []journal.Record{
		{Epoch: 1, Kind: journal.KindEpoch},
		{Epoch: 1, Kind: journal.KindAdaptBegin, Source: "1100", Target: "0011"},
		{Epoch: 1, Kind: journal.KindPlan, Detail: "A1 -> A2"},
		{Epoch: 1, Kind: journal.KindStepBegin, Step: step},
		{Epoch: 1, Kind: journal.KindAck, Step: step, Wave: "reset", Process: "server"},
		{Epoch: 1, Kind: journal.KindAck, Step: step, Wave: "reset", Process: "laptop"},
		{Epoch: 1, Kind: journal.KindPoNR, Step: step},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestJournalCommand(t *testing.T) {
	path := writeTestJournal(t)
	out := runCmd(t, "journal", path)
	for _, want := range []string{
		"7 records",
		"last epoch: 1 (a recovering manager starts at 2)",
		"IN-FLIGHT adaptation: 1100 -> 0011",
		"plan: A1 -> A2",
		"step in flight: A1",
		"acked reset: laptop,server",
		"past the point of no return: recovery MUST re-drive the resume wave",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("journal output missing %q:\n%s", want, out)
		}
	}
}

func TestJournalCommandTornTail(t *testing.T) {
	path := writeTestJournal(t)
	// A crash mid-write leaves trailing garbage the frame checksum rejects.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x00, 0x30, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out := runCmd(t, "journal", "-summary", path)
	if !strings.Contains(out, "torn tail: 7 trailing bytes") {
		t.Errorf("journal output missing torn-tail note:\n%s", out)
	}
	if !strings.Contains(out, "IN-FLIGHT adaptation") {
		t.Errorf("torn tail must not hide the durable prefix:\n%s", out)
	}
	// -summary suppresses the per-record dump.
	if strings.Contains(out, "#1 e1 epoch") {
		t.Errorf("-summary should not dump records:\n%s", out)
	}
}

func TestJournalCommandJSON(t *testing.T) {
	path := writeTestJournal(t)
	out := runCmd(t, "journal", "-json", path)
	for _, want := range []string{`"records"`, `"state"`, `"ponr"`, `"InFlight": true`} {
		if !strings.Contains(out, want) {
			t.Errorf("journal -json output missing %q:\n%s", want, out)
		}
	}
}

// writeInFlightJournal writes a log cut mid-adaptation: its first step
// completed, acknowledged on the reset, adapt and resume waves, and its
// second step is in flight with one of its two resets acknowledged.
func writeInFlightJournal(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "manager.journal")
	j, err := journal.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := protocol.Step{ActionID: "A1", PathIndex: 0, Attempt: 1, Participants: []string{"server", "laptop"}, FromVector: "1100", ToVector: "0110"}
	second := protocol.Step{ActionID: "A2", PathIndex: 1, Attempt: 2, Participants: []string{"laptop", "handheld"}, FromVector: "0110", ToVector: "0011"}
	recs := []journal.Record{
		{Epoch: 1, Kind: journal.KindEpoch},
		{Epoch: 1, Kind: journal.KindAdaptBegin, Source: "1100", Target: "0011"},
		{Epoch: 1, Kind: journal.KindPlan, Detail: "A1 -> A2"},
		{Epoch: 1, Kind: journal.KindStepBegin, Step: first},
	}
	for _, wave := range []string{"reset", "adapt", "resume"} {
		if wave == "resume" {
			recs = append(recs, journal.Record{Epoch: 1, Kind: journal.KindPoNR, Step: first})
		}
		for _, p := range first.Participants {
			recs = append(recs, journal.Record{Epoch: 1, Kind: journal.KindAck, Step: first, Wave: wave, Process: p})
		}
	}
	recs = append(recs,
		journal.Record{Epoch: 1, Kind: journal.KindStepEnd, Step: first, Outcome: "completed"},
		journal.Record{Epoch: 1, Kind: journal.KindStepBegin, Step: second},
		journal.Record{Epoch: 1, Kind: journal.KindAck, Step: second, Wave: "reset", Process: "laptop"})
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestJournalCommandGolden pins what the operator reads, as text and as
// JSON, for a log cut mid-step: the in-flight step's acknowledgements and
// no other step's.
func TestJournalCommandGolden(t *testing.T) {
	path := writeInFlightJournal(t)
	for golden, args := range map[string][]string{
		"testdata/journal-inflight.txt":  {"journal", path},
		"testdata/journal-inflight.json": {"journal", "-json", path},
	} {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.ReplaceAll(runCmd(t, args...), path, "manager.journal"); got != string(want) {
			t.Errorf("%v differs from %s:\n%s", args[:len(args)-1], golden, got)
		}
	}
}

func TestJournalCommandErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"journal"}, &sb); err == nil {
		t.Error("journal without a path should fail")
	}
	if err := run([]string{"journal", filepath.Join(t.TempDir(), "missing.journal")}, &sb); err == nil {
		t.Error("journal on a missing file should fail")
	}
}

// syncBuffer is a goroutine-safe strings.Builder for the follow test: the
// tailer writes from its own goroutine while the test polls the contents.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

func waitContains(t *testing.T, buf *syncBuffer, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(buf.String(), want) {
		if time.Now().After(deadline) {
			t.Fatalf("follow output never contained %q:\n%s", want, buf.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJournalFollow tails a live journal: the follower must print the
// existing records, pick up records appended while it watches, ignore a
// torn tail, and summarize the folded state when stopped.
func TestJournalFollow(t *testing.T) {
	path := writeTestJournal(t)

	buf := &syncBuffer{}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- followJournal(path, buf, 2*time.Millisecond, stop) }()
	waitContains(t, buf, "ponr")

	// Append a live record plus a torn half-frame; the follower must print
	// the record and treat the garbage as "log ends here for now".
	j, err := journal.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	step := protocol.Step{ActionID: "A1", PathIndex: 0, Attempt: 1, FromVector: "1100", ToVector: "0110"}
	if err := j.Append(journal.Record{Epoch: 1, Kind: journal.KindStepEnd, Step: step, Outcome: "completed"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x00, 0x30, 0xde}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	waitContains(t, buf, "completed")

	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("followJournal: %v", err)
	}
	if !strings.Contains(buf.String(), "followed 8 records") {
		t.Errorf("follow summary missing record count:\n%s", buf.String())
	}
}

func TestJournalFollowFlagConflicts(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"journal", "-follow", "-json", writeTestJournal(t)}, &sb); err == nil {
		t.Error("journal -follow -json should fail")
	}
}

func TestCheckChurnSweep(t *testing.T) {
	out := runCmd(t, "check", "-depth", "2", "-churn", "0")
	if !strings.Contains(out, "churn sweep: leader killed at every journal record boundary") {
		t.Errorf("check -churn output missing sweep header:\n%s", out)
	}
	if !strings.Contains(out, "standby takeovers:") {
		t.Errorf("check -churn output missing takeover count:\n%s", out)
	}
	if !strings.Contains(out, "no safety violations") {
		t.Errorf("check -churn found violations:\n%s", out)
	}
}

func TestCheckCrashSweep(t *testing.T) {
	out := runCmd(t, "check", "-depth", "2", "-crash", "0")
	if !strings.Contains(out, "crash sweep: manager killed at every journal record boundary") {
		t.Errorf("check -crash output missing sweep header:\n%s", out)
	}
	if !strings.Contains(out, "(all recovered)") {
		t.Errorf("check -crash output missing crash count:\n%s", out)
	}
	if !strings.Contains(out, "no safety violations") {
		t.Errorf("check -crash found violations:\n%s", out)
	}
}
