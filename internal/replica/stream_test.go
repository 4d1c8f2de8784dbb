package replica

import (
	"bytes"
	"encoding/hex"
	"reflect"
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
