package replica

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/journal"
)

// commitBatch is a replication batch of the shape one commit of a running
// adaptation produces: a step-end, the next step-begin, its wave marker
// and an ack, each carrying the protocol step.
func commitBatch() []journal.Record {
	st := step(2, 3, "A16", "0100101", "0101101")
	st.Participants = []string{"handheld", "server"}
	st.ResetPhases = [][]string{{"server"}, {"handheld"}}
	return []journal.Record{
		{Seq: 41, Epoch: 2, Kind: journal.KindStepEnd, Step: st, Outcome: "completed"},
		{Seq: 42, Epoch: 2, Kind: journal.KindStepBegin, Step: st},
		{Seq: 43, Epoch: 2, Kind: journal.KindWave, Wave: "reset", Step: st},
		{Seq: 44, Epoch: 2, Kind: journal.KindAck, Wave: "reset", Process: "server", Step: st},
	}
}

// FuzzReadFrame hardens the replication stream's reader: arbitrary bytes
// must never panic it or make it allocate by a hostile count, and any
// frame it does accept must survive a re-encode.
func FuzzReadFrame(f *testing.F) {
	for _, fr := range []frame{
		{Type: frameRecords, Recs: commitBatch(), Batch: 7, TTLMillis: 250},
		{Type: frameHello, Name: "standby-1", Rank: 1},
		{Type: frameAck, Batch: 7},
		{Type: frameDetach, Reason: "journal closed"},
	} {
		raw, err := appendFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(append(append([]byte{}, raw...), raw...))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := newFrameReader(bytes.NewReader(data))
		for {
			got, err := r.read()
			if err != nil {
				return
			}
			raw, err := appendFrame(nil, got)
			if err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
			again, err := newFrameReader(bytes.NewReader(raw)).read()
			if err != nil || !reflect.DeepEqual(again, got) {
				t.Fatalf("re-encoded frame read back as %+v (%v), was %+v", again, err, got)
			}
		}
	})
}

// TestCommitEncodeAllocs pins the leader's per-commit encode: the batch
// goes into the sink's reused buffer without one allocation.
func TestCommitEncodeAllocs(t *testing.T) {
	fr := frame{Type: frameRecords, Recs: commitBatch(), Batch: 9, TTLMillis: 30000}
	buf, err := appendFrame(nil, fr)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = appendFrame(buf[:0], fr) }); n != 0 {
		t.Fatalf("encoding one commit allocates %.0f times, want 0", n)
	}
}

// TestGoldenRecordsFrame pins the replication stream byte for byte: a
// records frame is its scalar fields and then the journal's own frames, so
// a standby of either build follows a leader of the other.
func TestGoldenRecordsFrame(t *testing.T) {
	const golden = "000000bf78ee8eb403000007f403000200000057f583bdda01290208737465702d656e6404060341313600020868616e6468656c6406736572766572020106736572766572010868616e6468656c6407303130303130310730313031313031000000000009636f6d706c657465640000000050c3bb3b99012a020a737465702d626567696e04060341313600020868616e6468656c6406736572766572020106736572766572010868616e6468656c640730313030313031073031303131303100000000000000"
	want, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	fr := frame{Type: frameRecords, Recs: commitBatch()[:2], Batch: 7, TTLMillis: 250}
	got, err := appendFrame(nil, fr)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the stream layout changed (%v):\n got  %x\n want %x", err, got, want)
	}
	back, err := newFrameReader(bytes.NewReader(want)).read()
	if err != nil || !reflect.DeepEqual(back, fr) {
		t.Fatalf("golden frame reads back as %+v (%v)", back, err)
	}
}

// repeating is a connection that delivers one run of frames for ever.
type repeating struct {
	frames []byte
	at     int
}

func (r *repeating) Read(p []byte) (int, error) {
	if r.at == len(r.frames) {
		r.at = 0
	}
	n := copy(p, r.frames[r.at:])
	r.at += n
	return n, nil
}

// TestReadBatchAllocs pins the standby's per-commit decode: the records of
// a round repeat a handful of names and one step shape, and the reader
// reuses its record slice, so an eight-record batch costs nothing, where
// it cost thirteen allocations a record and then one for the slice.
func TestReadBatchAllocs(t *testing.T) {
	recs := append(commitBatch(), commitBatch()...)
	raw, err := appendFrame(nil, frame{Type: frameRecords, Recs: recs, Batch: 9, TTLMillis: 30000})
	if err != nil {
		t.Fatal(err)
	}
	r := newFrameReader(&repeating{frames: raw})
	read := func() {
		if got, err := r.read(); err != nil || len(got.Recs) != len(recs) {
			t.Fatalf("read %d records, %v", len(got.Recs), err)
		}
	}
	read()
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Fatalf("reading a batch of %d records allocates %.0f times, want 0", len(recs), n)
	}
}

// TestReadGrowsWithTheBytesThatArrive: the replication port is as open as
// the manager's. A header announcing sixteen megabytes with ten bytes
// behind it costs a few kilobytes and the truncated-body error.
func TestReadGrowsWithTheBytesThatArrive(t *testing.T) {
	stream := append([]byte{0x01, 0x00, 0x00, 0x00, 0, 0, 0, 0}, make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := newFrameReader(bytes.NewReader(stream)).read()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want the truncated-body error, got %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 128<<10 {
		t.Fatalf("a 16 MiB header with 10 bytes behind it allocated %d bytes", grew)
	}
}

// TestFrameReaderKeepsOnlyBatchSizedSlices: a frame's records are valid
// until the next read. Commit batches are read into one reused slice; a
// snapshot's slice is let go once it has been read, not kept for the
// batches behind it.
func TestFrameReaderKeepsOnlyBatchSizedSlices(t *testing.T) {
	var stream []byte
	for _, f := range []frame{
		{Type: frameRecords, Recs: commitBatch(), Batch: 1},
		{Type: frameSnapshot, Recs: someRecords(10 * maxKeptRecs)},
		{Type: frameRecords, Recs: commitBatch(), Batch: 2},
	} {
		var err error
		if stream, err = appendFrame(stream, f); err != nil {
			t.Fatal(err)
		}
	}
	r := newFrameReader(bytes.NewReader(stream))
	read := func() frame {
		t.Helper()
		f, err := r.read()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	batch := read()
	snap := read()
	if len(snap.Recs) != 10*maxKeptRecs {
		t.Fatalf("snapshot read back %d records", len(snap.Recs))
	}
	if cap(r.recs) > maxKeptRecs {
		t.Errorf("the reader keeps room for %d records after a snapshot, want at most %d", cap(r.recs), maxKeptRecs)
	}
	again := read()
	if &again.Recs[0] != &batch.Recs[0] {
		t.Error("the batch after a snapshot was read into a new slice")
	}
	if !reflect.DeepEqual(again.Recs, commitBatch()) {
		t.Errorf("the batch after a snapshot read back as %+v", again.Recs)
	}
}

// TestStandbyAbsorbsConsecutiveBatches: the standby folds and journals
// each batch before it reads the next into the same slice, so two commits
// in a row both reach its state and its journal intact.
func TestStandbyAbsorbsConsecutiveBatches(t *testing.T) {
	leaderJournal := journal.NewMem()
	tee, err := NewTee(leaderJournal, nil)
	if err != nil {
		t.Fatal(err)
	}
	leader, err := Serve(tee, "127.0.0.1:0", LeaderOptions{LeaseTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = leader.Close() }()
	standbyJournal := journal.NewMem()
	sb, err := ConnectStandby(leader.Addr(), StandbyOptions{Name: "standby-1", Journal: standbyJournal})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sb.Close() }()

	first, second := step(0, 1, "A1", "1100", "0110"), step(1, 2, "A2", "0110", "0011")
	for _, batch := range [][]journal.Record{
		{
			{Epoch: 1, Kind: journal.KindEpoch},
			{Epoch: 1, Kind: journal.KindAdaptBegin, Source: "1100", Target: "0011"},
			{Epoch: 1, Kind: journal.KindStepBegin, Step: first},
			{Epoch: 1, Kind: journal.KindAck, Step: first, Wave: "reset", Process: "server"},
		},
		{
			{Epoch: 1, Kind: journal.KindStepEnd, Step: first, Outcome: "completed"},
			{Epoch: 1, Kind: journal.KindStepBegin, Step: second},
			{Epoch: 1, Kind: journal.KindAck, Step: second, Wave: "reset", Process: "laptop"},
		},
	} {
		for _, r := range batch {
			if err := tee.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := tee.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	leaderLog, err := leaderJournal.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	standbyLog, err := standbyJournal.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(standbyLog, leaderLog) {
		t.Fatalf("standby journal != leader journal:\n standby %+v\n leader  %+v", standbyLog, leaderLog)
	}
	if got, want := sb.State(), journal.Replay(leaderLog); !reflect.DeepEqual(got, want) {
		t.Fatalf("standby state != the leader's replayed log:\n got  %+v\n want %+v", got, want)
	}
}
