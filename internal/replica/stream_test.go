package replica

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

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
// a round repeat a handful of names and one step, so an eight-record batch
// costs the frame's record slice and little else — at most two allocations
// a record, where it was thirteen.
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
	if n := testing.AllocsPerRun(100, read); n > float64(2*len(recs)) {
		t.Fatalf("reading a batch of %d records allocates %.0f times, want at most %d", len(recs), n, 2*len(recs))
	} else {
		t.Logf("%.0f allocations for %d records", n, len(recs))
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
