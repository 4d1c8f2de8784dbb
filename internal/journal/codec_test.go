package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/action"
	"repro/internal/protocol"
)

// fullRecord sets every field of a Record, nested slices included.
func fullRecord() Record {
	return Record{
		Seq: 1 << 40, Epoch: 7, Kind: KindStepBegin,
		Step: protocol.Step{
			PathIndex: 3, Attempt: -2, ActionID: "A16",
			Ops: []action.Op{
				{Kind: action.Replace, Old: "D1", New: "D2"},
				{Kind: action.Insert, New: "E2"},
				{Kind: action.Remove, Old: "E1"},
			},
			Participants: []string{"handheld", "laptop", "server"},
			ResetPhases:  [][]string{{"server"}, nil, {"handheld", "laptop"}},
			FromVector:   "0100101", ToVector: "1010010",
		},
		Wave: "resume", Process: "coordinator-0", Agents: []string{"a", "", "c"},
		Source: "0100101", Target: "1010010", Outcome: "rolled back",
		Detail: "timeout waiting for reset done (got 1 of 2) — “naïve” bytes \x00\xff",
	}
}

// randomRecord draws a record whose strings and counts come from rng, with
// empty slices always nil (the one normalisation the codec applies).
func randomRecord(rng *rand.Rand) Record {
	str := func() string {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return string(b)
	}
	strs := func() []string {
		n := rng.Intn(4)
		if n == 0 {
			return nil
		}
		out := make([]string, n)
		for i := range out {
			out[i] = str()
		}
		return out
	}
	rec := Record{
		Seq: rng.Uint64() >> uint(rng.Intn(64)), Epoch: rng.Uint64() >> uint(rng.Intn(64)), Kind: Kind(str()),
		Step: protocol.Step{
			PathIndex: rng.Intn(1<<20) - 1<<19, Attempt: rng.Intn(1 << 10), ActionID: str(),
			Participants: strs(), FromVector: str(), ToVector: str(),
		},
		Wave: str(), Process: str(), Agents: strs(), Source: str(), Target: str(), Outcome: str(), Detail: str(),
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		rec.Step.Ops = append(rec.Step.Ops, action.Op{Kind: action.OpKind(rng.Intn(5) - 1), Old: str(), New: str()})
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		rec.Step.ResetPhases = append(rec.Step.ResetPhases, strs())
	}
	return rec
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range []Record{{}, {Kind: KindEpoch, Epoch: 1}, fullRecord()} {
		frame := AppendFrame(nil, rec)
		got, n, err := DecodeFrame(frame)
		if err != nil || n != len(frame) {
			t.Fatalf("decode %s: %d of %d bytes, %v", rec, n, len(frame), err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip changed the record:\n got  %+v\n want %+v", got, rec)
		}
	}
	// The one normalisation: an empty slice reads back nil.
	got, _, err := DecodeFrame(AppendFrame(nil, Record{Agents: []string{}, Step: protocol.Step{Ops: []action.Op{}}}))
	if err != nil || got.Agents != nil || got.Step.Ops != nil {
		t.Fatalf("empty slices read back as %+v, %v", got, err)
	}
}

// FuzzRecordRoundTrip checks the codec from both ends. Forward: a record
// drawn from the input encodes and decodes to itself. Backward: the input
// taken as a record body never panics the decoder, and whatever it decodes
// to re-encodes to something that decodes to the same record (bodies are
// not canonical — a varint may be padded — so the bytes may differ).
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(AppendFrame(nil, fullRecord())[frameHeader:])
	f.Add(AppendFrame(nil, Record{})[frameHeader:])
	f.Add([]byte{recordVersion})
	f.Add([]byte{recordVersion, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte(`{"seq":1,"epoch":1,"kind":"epoch"}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec := randomRecord(rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(data)))))
		got, n, err := DecodeFrame(AppendFrame(nil, rec))
		if err != nil || !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip of %+v: %+v, %d, %v", rec, got, n, err)
		}

		if len(data) == 0 {
			return
		}
		dec, err := decodeBody(data, nil)
		if err != nil {
			if !errors.Is(err, ErrUnknownVersion) && !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("unexpected decode error %v", err)
			}
			return
		}
		again, _, err := DecodeFrame(AppendFrame(nil, dec))
		if err != nil || !reflect.DeepEqual(again, dec) {
			t.Fatalf("re-encoding a decoded body changed it: %+v vs %+v (%v)", again, dec, err)
		}
	})
}

// TestDecodeHostileCount: a count field far above what the body could
// hold is a corrupt record, decided before anything is sized by it.
func TestDecodeHostileCount(t *testing.T) {
	body := AppendFrame(nil, Record{Kind: KindAck})[frameHeader:]
	// Behind version, seq, epoch, the kind "ack", path index and attempt,
	// every remaining byte of this body is a zero length or count; rebuild
	// the body with each of them in turn set to 2^60.
	firstCount := len(body) - 13
	if body[firstCount-1] != 0 || body[firstCount-3] != 'k' {
		t.Fatalf("body layout changed: % x", body)
	}
	huge := binary.AppendUvarint(nil, 1<<60)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for at := firstCount; at < len(body); at++ {
		hostile := append(append(append([]byte{}, body[:at]...), huge...), body[at+1:]...)
		if _, err := decodeBody(hostile, nil); !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("count 2^60 at byte %d: %v, want ErrCorruptRecord", at, err)
		}
	}
	runtime.ReadMemStats(&ms)
	if grew := ms.TotalAlloc - before; grew > 1<<20 {
		t.Fatalf("decoding hostile counts allocated %d bytes", grew)
	}
}

// TestTornTailAtEveryOffset writes one multi-record group through the
// buffered File (one write at Sync) and then cuts the file at every byte
// offset: reopening must yield exactly the records whose frames are whole,
// report the rest as torn, truncate it, and accept appends after it.
func TestTornTailAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	recs := genRecords(rand.New(rand.NewSource(3)), 9)
	data := encodeToBytes(t, recs)

	// ends[i] is the offset just past record i.
	var ends []int
	for off := 0; off < len(data); {
		_, n, err := DecodeFrame(data[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += n
		ends = append(ends, off)
	}
	if len(ends) != len(recs) {
		t.Fatalf("group holds %d frames, want %d", len(ends), len(recs))
	}

	path := filepath.Join(dir, "cut.journal")
	for cut := 0; cut <= len(data); cut++ {
		whole, good := 0, 0
		for whole < len(ends) && ends[whole] <= cut {
			good = ends[whole]
			whole++
		}
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenFile(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got, err := j.Snapshot()
		if err != nil {
			t.Fatalf("cut %d: snapshot: %v", cut, err)
		}
		if len(got) != whole || j.Torn() != int64(cut-good) {
			t.Fatalf("cut %d: %d records, torn %d; want %d, %d", cut, len(got), j.Torn(), whole, cut-good)
		}
		if err := j.Append(Record{Epoch: 9, Kind: KindEpoch}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		healed, torn, err := ReadFile(path)
		if err != nil || torn != 0 || len(healed) != whole+1 || healed[whole].Seq != uint64(whole+1) {
			t.Fatalf("cut %d: after healing %d records, torn %d, %v; want %d numbered to %d",
				cut, len(healed), torn, err, whole+1, whole+1)
		}
	}
}

// TestOldJSONLogRejectedNotTruncated: a log in the JSON layout this codec
// replaced has frames that verify, so it is not a torn tail — OpenFile and
// ReadFile must refuse it by name and leave every byte in place.
func TestOldJSONLogRejectedNotTruncated(t *testing.T) {
	var old []byte
	for i, rec := range []Record{{Epoch: 1, Kind: KindEpoch}, {Epoch: 1, Kind: KindAdaptBegin, Source: "01", Target: "10"}} {
		rec.Seq = uint64(i + 1)
		body, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		old = binary.BigEndian.AppendUint32(old, uint32(len(body)))
		old = binary.BigEndian.AppendUint32(old, crc32.ChecksumIEEE(body))
		old = append(old, body...)
	}
	path := filepath.Join(t.TempDir(), "old.journal")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if j, err := OpenFile(path); !errors.Is(err, ErrUnknownVersion) {
		if j != nil {
			_ = j.Close()
		}
		t.Fatalf("OpenFile on a JSON-layout log: %v, want ErrUnknownVersion", err)
	}
	if _, _, err := ReadFile(path); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("ReadFile on a JSON-layout log: %v, want ErrUnknownVersion", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, old) {
		t.Fatalf("the refused log was modified: %d bytes, was %d (%v)", len(after), len(old), err)
	}

	// The same holds when current records precede the foreign ones.
	mixed := append(AppendFrame(nil, Record{Seq: 1, Epoch: 1, Kind: KindEpoch}), old...)
	if err := os.WriteFile(path, mixed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("OpenFile on a mixed log: %v, want ErrUnknownVersion", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, mixed) {
		t.Fatal("the refused mixed log was modified")
	}
}

// TestFilePendingTail pins what the buffered File shows of an unsynced
// tail: Snapshot includes it, the file on disk does not, and after Sync
// the File keeps nothing of what it wrote.
func TestFilePendingTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pending.journal")
	j, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 3; i++ {
		if err := j.Append(Record{Epoch: 1, Kind: KindAck, Process: "p"}); err != nil {
			t.Fatal(err)
		}
	}
	if recs, err := j.Snapshot(); err != nil || len(recs) != 3 || recs[2].Seq != 3 {
		t.Fatalf("snapshot with a pending tail: %+v, %v", recs, err)
	}
	if onDisk, _, err := ReadFile(path); err != nil || len(onDisk) != 0 {
		t.Fatalf("unsynced records reached the file: %d, %v", len(onDisk), err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(j.pending) != 0 {
		t.Fatalf("File still holds %d pending bytes after Sync", len(j.pending))
	}
	if onDisk, torn, err := ReadFile(path); err != nil || len(onDisk) != 3 || torn != 0 {
		t.Fatalf("after Sync the file holds %d records, torn %d, %v", len(onDisk), torn, err)
	}
	if recs, err := j.Snapshot(); err != nil || len(recs) != 3 {
		t.Fatalf("snapshot after Sync: %d records, %v", len(recs), err)
	}
}

// TestFileAppendAllocs pins the append path: encoding into the pending
// buffer allocates nothing once the buffer has grown to a group's size.
func TestFileAppendAllocs(t *testing.T) {
	j, err := OpenFile(filepath.Join(t.TempDir(), "allocs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rec := fullRecord()
	const group = 8
	commit := func() {
		for i := 0; i < group; i++ {
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	commit() // grow the buffer once
	if perAppend := testing.AllocsPerRun(50, commit) / group; perAppend > 1 {
		t.Fatalf("%.2f allocations per Append, want at most 1 amortised", perAppend)
	}
}

// TestGoldenFrame pins record version 1 byte for byte: the frame of a
// step-begin record with every field set is what every log and every
// replication stream already written holds.
func TestGoldenFrame(t *testing.T) {
	const golden = "000000ebd86a9f7701808080808020070a737465702d626567696e060303413136030602443102443202000245320402453100030868616e6468656c64066c6170746f700673657276657203010673657276657200020868616e6468656c64066c6170746f700730313030313031073130313030313006726573756d650d636f6f7264696e61746f722d30030161000163073031303031303107313031303031300b726f6c6c6564206261636b4574696d656f75742077616974696e6720666f7220726573657420646f6e652028676f742031206f6620322920e2809420e2809c6e61c3af7665e2809d2062797465732000ff"
	want, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendFrame(nil, fullRecord()); !bytes.Equal(got, want) {
		t.Fatalf("the record layout changed:\n got  %x\n want %x", got, want)
	}
	rec, n, err := DecodeFrame(want)
	if err != nil || n != len(want) || !reflect.DeepEqual(rec, fullRecord()) {
		t.Fatalf("golden frame decodes to %+v (%d of %d bytes, %v)", rec, n, len(want), err)
	}
}
