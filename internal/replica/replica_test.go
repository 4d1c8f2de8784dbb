package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/manager"
	"repro/internal/protocol"
	"repro/internal/telemetry"
)

// memSink collects committed batches in-process, with a scriptable
// failure for the detach-on-error path.
type memSink struct {
	batches  [][]journal.Record
	failWith error
	detached string
}

func (s *memSink) Commit(recs []journal.Record) error {
	if s.failWith != nil {
		return s.failWith
	}
	cp := make([]journal.Record, len(recs))
	copy(cp, recs)
	s.batches = append(s.batches, cp)
	return nil
}

func (s *memSink) Detach(reason string) { s.detached = reason }

func (s *memSink) all() []journal.Record {
	var out []journal.Record
	for _, b := range s.batches {
		out = append(out, b...)
	}
	return out
}

func someRecords(n int) []journal.Record {
	recs := make([]journal.Record, n)
	for i := range recs {
		recs[i] = journal.Record{Epoch: 1, Kind: journal.KindAck, Process: fmt.Sprintf("p%d", i)}
	}
	return recs
}

// TestTeeSeqMirrorsInnerJournal: batches delivered to sinks carry the
// same record sequence numbers the inner journal assigned, so a standby
// can dedup a snapshot/stream overlap purely on Seq.
func TestTeeSeqMirrorsInnerJournal(t *testing.T) {
	mem := journal.NewMem()
	tee, err := NewTee(mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := &memSink{}
	if err := tee.Attach(sink, func([]journal.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for _, r := range someRecords(3) {
		if err := tee.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tee.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tee.Append(someRecords(1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := tee.Sync(); err != nil {
		t.Fatal(err)
	}
	durable, err := mem.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got := sink.all()
	if !reflect.DeepEqual(got, durable) {
		t.Fatalf("replicated stream != inner durable log:\n got  %+v\n want %+v", got, durable)
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d has seq %d, want %d", i, r.Seq, i+1)
		}
	}
	if len(sink.batches) != 2 {
		t.Errorf("got %d batches, want 2 (one per Sync)", len(sink.batches))
	}
}

// TestTeeDetachesFailingSink: a sink whose Commit fails is detached with
// a reason, dropped from the fan-out, and the healthy sink still gets
// every batch — one slow standby must not wedge the adaptation.
func TestTeeDetachesFailingSink(t *testing.T) {
	tel := telemetry.NewRegistry()
	tee, err := NewTee(journal.NewMem(), tel)
	if err != nil {
		t.Fatal(err)
	}
	bad := &memSink{failWith: errors.New("ack deadline missed")}
	good := &memSink{}
	for _, s := range []*memSink{bad, good} {
		if err := tee.Attach(s, func([]journal.Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := tee.Append(someRecords(1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := tee.Sync(); err != nil {
		t.Fatal(err)
	}
	if tee.Standbys() != 1 {
		t.Errorf("standbys after failed commit = %d, want 1", tee.Standbys())
	}
	if !strings.Contains(bad.detached, "commit failed") {
		t.Errorf("failing sink detach reason = %q", bad.detached)
	}
	if len(good.batches) != 1 {
		t.Errorf("healthy sink got %d batches, want 1", len(good.batches))
	}
	if got := tel.Counter("replica.detachments").Value(); got != 1 {
		t.Errorf("replica.detachments = %d, want 1", got)
	}
}

// TestTeeSyncFailureDropsTail: when the inner fsync fails (tail lost),
// nothing undurable is replicated and the sequence numbering stays in
// lockstep with the inner journal for the records that come after.
func TestTeeSyncFailureDropsTail(t *testing.T) {
	mem := journal.NewMem()
	tee, err := NewTee(mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := &memSink{}
	if err := tee.Attach(sink, func([]journal.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := tee.Append(someRecords(2)[0]); err != nil {
		t.Fatal(err)
	}
	mem.FailNextSync()
	if !errors.Is(tee.Sync(), journal.ErrCrashed) {
		t.Fatal("Sync should surface the inner fsync failure")
	}
	if len(sink.batches) != 0 {
		t.Fatalf("lost tail was replicated: %+v", sink.batches)
	}
	// The inner journal reopens (crash recovery); the next commit must
	// number from where the DURABLE log ends, not where the lost tail did.
	mem.Reopen()
	if err := tee.Append(journal.Record{Epoch: 2, Kind: journal.KindEpoch}); err != nil {
		t.Fatal(err)
	}
	if err := tee.Sync(); err != nil {
		t.Fatal(err)
	}
	durable, err := mem.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sink.all(), durable) {
		t.Fatalf("post-crash stream != durable log:\n got  %+v\n want %+v", sink.all(), durable)
	}
}

// TestTeeAttachSnapshotIsAtomic: a sink attached after commits receives
// the full durable log in its snapshot, and an Applier fed snapshot plus
// live stream applies every record exactly once even when they overlap.
func TestTeeAttachSnapshotIsAtomic(t *testing.T) {
	tee, err := NewTee(journal.NewMem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range someRecords(3) {
		if err := tee.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tee.Sync(); err != nil {
		t.Fatal(err)
	}

	ap := &Applier{}
	sink := &memSink{}
	var snapLen int
	err = tee.Attach(sink, func(snap []journal.Record) error {
		snapLen = len(snap)
		ap.Apply(snap)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if snapLen != 3 {
		t.Fatalf("snapshot carried %d records, want 3", snapLen)
	}
	// Feed the snapshot AGAIN (a reattach would) plus a live batch: the
	// Seq dedup must make the overlap a no-op.
	snap, _ := tee.Snapshot()
	if got := ap.Apply(snap); got != 0 {
		t.Errorf("re-applying the snapshot applied %d records, want 0", got)
	}
	if err := tee.Append(someRecords(1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := tee.Sync(); err != nil {
		t.Fatal(err)
	}
	ap.Apply(sink.all())
	if ap.Records() != 4 || ap.LastSeq() != 4 {
		t.Errorf("applier records=%d lastSeq=%d, want 4/4", ap.Records(), ap.LastSeq())
	}

	// A failing deliver must not register the sink.
	before := tee.Standbys()
	err = tee.Attach(&memSink{}, func([]journal.Record) error { return errors.New("send failed") })
	if err == nil {
		t.Error("Attach with failing deliver should error")
	}
	if tee.Standbys() != before {
		t.Errorf("failed attach registered the sink: %d standbys, want %d", tee.Standbys(), before)
	}
}

// TestTeeCloseDetachesSinks: the clean-shutdown path detaches every sink
// with a "journal closed" notice (a clean detach must not look like
// leader death to the standby behind it).
func TestTeeCloseDetachesSinks(t *testing.T) {
	tee, err := NewTee(journal.NewMem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := &memSink{}
	if err := tee.Attach(sink, func([]journal.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := tee.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.detached != "journal closed" {
		t.Errorf("detach reason = %q, want \"journal closed\"", sink.detached)
	}
	if tee.Standbys() != 0 {
		t.Errorf("standbys after Close = %d, want 0", tee.Standbys())
	}
}

// TestApplierStateIsDeepCopy: the state handed to a takeover candidate
// must not alias the applier's live fold.
func TestApplierStateIsDeepCopy(t *testing.T) {
	ap := &Applier{}
	st := step(0, 1, "A1", "1100", "0110")
	ap.Apply([]journal.Record{
		{Seq: 1, Epoch: 1, Kind: journal.KindEpoch},
		{Seq: 2, Epoch: 1, Kind: journal.KindAdaptBegin, Source: "1100", Target: "0011"},
		{Seq: 3, Epoch: 1, Kind: journal.KindStepBegin, Step: st},
		{Seq: 4, Epoch: 1, Kind: journal.KindAck, Wave: "reset", Process: "server", Step: st},
	})
	snap := ap.State()
	ap.Apply([]journal.Record{
		{Seq: 5, Epoch: 1, Kind: journal.KindAck, Wave: "reset", Process: "laptop", Step: st},
	})
	if len(snap.Acked["reset"]) != 1 {
		t.Errorf("earlier State() copy mutated by later Apply: %+v", snap.Acked)
	}
	if got := ap.State(); len(got.Acked["reset"]) != 2 {
		t.Errorf("live state missing the late ack: %+v", got.Acked)
	}
}

// TestFrameCodec: round trip, torn tail, and checksum corruption over the
// replication stream's length+CRC32 framing.
func TestFrameCodec(t *testing.T) {
	want := frame{Type: frameRecords, Recs: someRecords(2), Batch: 7, TTLMillis: 250}
	raw, err := appendFrame(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	read := func(b []byte) (frame, error) { return newFrameReader(bytes.NewReader(b)).read() }

	got, err := read(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mangled the frame:\n got  %+v\n want %+v", got, want)
	}
	for _, f := range []frame{
		{Type: frameHello, Name: "standby-1", Rank: 2},
		{Type: frameSnapshot, TTLMillis: 1000},
		{Type: frameAck, Batch: 1 << 40},
		{Type: frameLease, TTLMillis: 30000},
		{Type: frameDetach, Reason: "journal closed"},
	} {
		raw, err := appendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := read(raw); err != nil || !reflect.DeepEqual(got, f) {
			t.Errorf("frame %+v read back as %+v, %v", f, got, err)
		}
	}

	if _, err := read(raw[:len(raw)-3]); err == nil {
		t.Error("torn frame should fail to decode")
	}
	flipped := append([]byte{}, raw...)
	flipped[len(flipped)-1] ^= 0xff
	if _, err := read(flipped); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupted body error = %v, want checksum mismatch", err)
	}
	if _, err := read(nil); !errors.Is(err, io.EOF) {
		t.Errorf("empty stream error = %v, want io.EOF", err)
	}
}

// TestStandbyStreamOverTCP: a standby attached over a real socket holds
// exactly the leader's durable log — in memory AND in its own journal —
// after each commit, and a leader that closes cleanly detaches it
// without triggering the takeover path.
func TestStandbyStreamOverTCP(t *testing.T) {
	leaderJournal := journal.NewMem()
	tee, err := NewTee(leaderJournal, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A couple of records exist before the standby attaches, to exercise
	// the snapshot path.
	if err := tee.Append(journal.Record{Epoch: 1, Kind: journal.KindEpoch}); err != nil {
		t.Fatal(err)
	}
	if err := tee.Sync(); err != nil {
		t.Fatal(err)
	}

	leader, err := Serve(tee, "127.0.0.1:0", LeaderOptions{LeaseTTL: time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = leader.Close() }()

	standbyJournal := journal.NewMem()
	sb, err := ConnectStandby(leader.Addr(), StandbyOptions{
		Name:    "standby-1",
		Rank:    1,
		Journal: standbyJournal,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sb.Close() }()
	if sb.State().LastEpoch != 1 {
		t.Fatalf("snapshot not applied: %+v", sb.State())
	}

	st := step(0, 1, "A1", "1100", "0110")
	for _, r := range []journal.Record{
		{Epoch: 1, Kind: journal.KindAdaptBegin, Source: "1100", Target: "0011"},
		{Epoch: 1, Kind: journal.KindStepBegin, Step: st},
		{Epoch: 1, Kind: journal.KindPoNR, Step: st},
	} {
		if err := tee.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// Sync blocks until the standby has durably applied the batch: no
	// polling needed — when Sync returns, the standby is caught up.
	if err := tee.Sync(); err != nil {
		t.Fatal(err)
	}

	leaderLog, err := leaderJournal.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	standbyLog, err := standbyJournal.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The standby's own journal re-numbers on append; compare modulo Seq.
	norm := func(recs []journal.Record) []journal.Record {
		out := make([]journal.Record, len(recs))
		copy(out, recs)
		for i := range out {
			out[i].Seq = 0
		}
		return out
	}
	if !reflect.DeepEqual(norm(standbyLog), norm(leaderLog)) {
		t.Fatalf("standby journal != leader journal:\n standby %+v\n leader  %+v", standbyLog, leaderLog)
	}
	want := journal.Replay(leaderLog)
	got := sb.State()
	if !got.InFlight || !got.PastPoNR || got.LastEpoch != want.LastEpoch {
		t.Fatalf("standby state diverged:\n got  %+v\n want %+v", got, want)
	}
	if sb.ElectionEpoch() != want.LastEpoch+1 {
		t.Errorf("election epoch = %d, want %d", sb.ElectionEpoch(), want.LastEpoch+1)
	}

	// Clean shutdown: Tee.Close sends the detach notice; the standby must
	// report "detached", never "leader lost".
	if err := tee.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := contextWithTimeout(2 * time.Second)
	defer cancel()
	if err := sb.WaitLeaderLost(ctx); err == nil || !strings.Contains(err.Error(), "detached") {
		t.Errorf("clean detach should surface as a detach error, got %v", err)
	}
	if sb.Eligible() {
		t.Error("detached standby still reports takeover eligibility")
	}
	if _, _, err := sb.Promote(nil, nil, manager.Options{}); err == nil {
		t.Error("detached standby must refuse promotion")
	}
}

// TestStandbyLeaseExpiryOnLeaderDeath: an abrupt leader death (socket
// torn down, no detach notice) trips the lease watcher, and
// WaitLeaderLost returns nil — the takeover trigger.
func TestStandbyLeaseExpiryOnLeaderDeath(t *testing.T) {
	tee, err := NewTee(journal.NewMem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	leader, err := Serve(tee, "127.0.0.1:0", LeaderOptions{LeaseTTL: 80 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.NewRegistry()
	sb, err := ConnectStandby(leader.Addr(), StandbyOptions{
		Name:      "standby-1",
		Journal:   journal.NewMem(),
		Telemetry: tel,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sb.Close() }()
	sb.mu.Lock()
	adopted := sb.ttl
	sb.mu.Unlock()
	if adopted != 80*time.Millisecond {
		t.Errorf("standby did not adopt the leader-announced TTL: %v", adopted)
	}

	// Kill the leader without ceremony — exactly what a crashed process
	// looks like from the other end of the socket.
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := contextWithTimeout(2 * time.Second)
	defer cancel()
	if err := sb.WaitLeaderLost(ctx); err != nil {
		t.Fatalf("lease expiry should report leader lost, got %v", err)
	}
	if got := tel.Counter("replica.standby.lease_expiries").Value(); got != 1 {
		t.Errorf("lease_expiries = %d, want 1", got)
	}
	if !sb.Eligible() {
		t.Error("standby that outlived its leader must stay takeover-eligible")
	}
}

// TestStandbyFailStopOnJournalError: a standby that cannot journal a
// batch must NOT ack it — it fail-stops and marks itself detached, so it
// can never take over from a cut it did not persist.
func TestStandbyFailStopOnJournalError(t *testing.T) {
	tee, err := NewTee(journal.NewMem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	leader, err := Serve(tee, "127.0.0.1:0", LeaderOptions{AckTimeout: 300 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = leader.Close() }()

	sbJournal := journal.NewMem()
	sb, err := ConnectStandby(leader.Addr(), StandbyOptions{Name: "standby-1", Journal: sbJournal, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sb.Close() }()

	sbJournal.FailNextSync()
	if err := tee.Append(journal.Record{Epoch: 1, Kind: journal.KindEpoch}); err != nil {
		t.Fatal(err)
	}
	// The ack never comes; the leader's Sync detaches the standby at the
	// ack deadline and keeps going — local durability already happened.
	if err := tee.Sync(); err != nil {
		t.Fatal(err)
	}
	if tee.Standbys() != 0 {
		t.Errorf("leader still lists %d standbys after the missed ack", tee.Standbys())
	}
	deadline := time.Now().Add(2 * time.Second)
	for sb.Eligible() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if sb.Eligible() {
		t.Error("fail-stopped standby still reports takeover eligibility")
	}
}

// step builds a protocol step for record construction.
func step(path, attempt int, action, from, to string) protocol.Step {
	return protocol.Step{
		ActionID:     action,
		PathIndex:    path,
		Attempt:      attempt,
		Participants: []string{"server", "laptop"},
		FromVector:   from,
		ToVector:     to,
	}
}

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}
