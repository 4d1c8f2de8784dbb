package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// loaded is a message of the given kind holding every field there is.
func loaded(kind MsgType) Message {
	g := goldenMessages()
	m := g[MsgProbeAck-1]
	m.Type = kind
	m.Error = "free-form"
	m.Agents = []string{"handheld", "server"}
	m.Report = g[MsgMetricReport-1].Report
	m.Batch = g[MsgBatch-1].Batch
	return m
}

// TestEveryFieldCrossesOnEveryKind: the rows say what a kind carries for
// free, not what it may hold. Any field on any kind — one from beyond the
// vocabulary included — reads back, as it did from JSON.
func TestEveryFieldCrossesOnEveryKind(t *testing.T) {
	for kind := MsgType(-2); kind <= MsgMetricReport+2; kind++ {
		msg := loaded(kind)
		for f := field(0); f < numFields; f++ {
			if !f.set(&msg) {
				t.Fatalf("loaded message leaves %s empty", fieldSpec[f].name)
			}
		}
		got, err := wireRoundTrip(msg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !reflect.DeepEqual(normalise(got), normalise(jsonRoundTrip(t, msg))) {
			t.Errorf("%s with every field read back as %+v", kind, got)
		}
	}
}

// TestTornFrameAtEveryOffset: a golden frame cut anywhere is an error (the
// clean end of stream only at offset zero), never a panic and never a
// message.
func TestTornFrameAtEveryOffset(t *testing.T) {
	for kind := MsgReset; kind <= MsgMetricReport; kind++ {
		frame := goldenFrame(t, kind)
		for cut := 0; cut < len(frame); cut++ {
			_, err := ReadFrame(bytes.NewReader(frame[:cut]))
			if err == nil || (err == io.EOF) != (cut == 0) {
				t.Fatalf("%s cut at %d of %d: %v", kind, cut, len(frame), err)
			}
			// The same cut inside a whole frame: the length header is
			// honest, the body short.
			short := append([]byte(nil), frame[:cut]...)
			if cut >= 4 {
				binary.BigEndian.PutUint32(short, uint32(cut-4))
				if _, err := ReadFrame(bytes.NewReader(short)); err == nil {
					t.Fatalf("%s with its body cut to %d bytes decoded", kind, cut-4)
				}
			}
		}
	}
}

// frameOf wraps a body in its length header.
func frameOf(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// TestDecodeHostileCount: a count the bytes behind it cannot hold is
// refused before anything is sized by it — on every list the layout has.
func TestDecodeHostileCount(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	header := []byte{frameVersion, 0, 0, 0, 0, 0, 0, 0, 0} // kind patched in; from, to, epoch, trace empty
	withKind := func(kind MsgType, rest ...[]byte) []byte {
		body := append([]byte(nil), header...)
		body[1] = byte(kind << 1) // zigzag of a small positive kind
		for _, r := range rest {
			body = append(body, r...)
		}
		return frameOf(body)
	}
	emptyStep := make([]byte, 8)
	cases := map[string][]byte{
		"agents":       withKind(MsgHello, huge),
		"ops":          withKind(MsgReset, []byte{0, 0, 0}, huge),
		"participants": withKind(MsgReset, []byte{0, 0, 0, 0}, huge),
		"phases":       withKind(MsgReset, []byte{0, 0, 0, 0, 0}, huge),
		"string":       withKind(MsgResetFailed, emptyStep, huge),
		"batch":        withKind(MsgBatch, emptyStep, huge),
		"slowest":      withKind(MsgMetricReport, []byte{1, 0, 0}, huge),
		"extras":       withKind(MsgReset, emptyStep, []byte{200}),
	}
	for name, frame := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewDecoder(bytes.NewReader(frame)).Next()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "decode") {
			t.Errorf("%s: a count of 2^40 decoded: %v", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<10 {
			t.Errorf("%s: refusing the frame allocated %d bytes", name, grew)
		}
	}
}

// TestBatchRefusals: an enclosed frame longer than what is left of its
// envelope, bytes behind the last field, and a batch inside a batch — from
// either end — are errors.
func TestBatchRefusals(t *testing.T) {
	env := goldenFrame(t, MsgBatch)
	inner := goldenFrame(t, MsgReset)
	at := bytes.Index(env, []byte{0, 0, 0, 0x34}) // the first enclosed frame's length
	if at < 0 {
		t.Fatal("golden batch frame holds no 0x34-byte enclosed frame")
	}
	overrun := append([]byte(nil), env...)
	overrun[at+3] = 0xff
	if _, err := ReadFrame(bytes.NewReader(overrun)); err == nil || !strings.Contains(err.Error(), "claims") {
		t.Errorf("an enclosed length past the envelope: %v", err)
	}

	trailing := append([]byte(nil), inner...)
	trailing = append(trailing, 0)
	binary.BigEndian.PutUint32(trailing, uint32(len(trailing)-4))
	if _, err := ReadFrame(bytes.NewReader(trailing)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("a byte behind the last field: %v", err)
	}

	nested := PackBatch("c0", []Message{PackBatch("c1", []Message{{Type: MsgReset, To: "a"}})})
	if err := WriteFrame(io.Discard, nested); err == nil || !strings.Contains(err.Error(), "encloses a batch") {
		t.Errorf("encoding a batch inside a batch: %v", err)
	}
	// The same, forged: splice the golden envelope into itself where its
	// first enclosed frame sits.
	forged := append(append(append([]byte(nil), env[4:at]...), env...), env[at+4+0x34:]...)
	if _, err := ReadFrame(bytes.NewReader(frameOf(forged))); err == nil || !strings.Contains(err.Error(), "encloses a batch") {
		t.Errorf("decoding a batch inside a batch: %v", err)
	}
}

// TestBodyGrowsWithTheBytesThatArrive: a header is a claim. Sixteen
// megabytes announced and ten bytes sent cost a few kilobytes and end in
// the truncated-body error.
func TestBodyGrowsWithTheBytesThatArrive(t *testing.T) {
	stream := append([]byte{0x01, 0x00, 0x00, 0x00}, make([]byte, 10)...) // 1<<24, the most a header may say
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewDecoder(bytes.NewReader(stream)).Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "read body") {
		t.Fatalf("want the truncated-body error, got %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 128<<10 {
		t.Fatalf("a 16 MiB header with 10 bytes behind it allocated %d bytes", grew)
	}
	// And a body that does arrive, in pieces, is read whole.
	big := Message{Type: MsgResetFailed, Error: strings.Repeat("x", 300<<10)}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, big); err != nil {
		t.Fatal(err)
	}
	got, err := NewDecoder(io.MultiReader(bytes.NewReader(buf.Bytes()[:70000]), bytes.NewReader(buf.Bytes()[70000:]))).Next()
	if err != nil || got.Error != big.Error {
		t.Fatalf("a 300 KiB body read back %d bytes of error text, %v", len(got.Error), err)
	}
}

// TestInternTableIsBounded: ten thousand distinct names through one
// decoder all decode, and leave its table at the cap.
func TestInternTableIsBounded(t *testing.T) {
	var stream bytes.Buffer
	const n = 10000
	for i := 0; i < n; i++ {
		if err := WriteFrame(&stream, Message{Type: MsgHello, From: fmt.Sprintf("hostile-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	d := NewDecoder(&stream)
	for i := 0; i < n; i++ {
		msg, err := d.Next()
		if err != nil || msg.From != fmt.Sprintf("hostile-%d", i) {
			t.Fatalf("frame %d: %+v, %v", i, msg, err)
		}
	}
	if got := len(d.in.names); got != internCap {
		t.Fatalf("the table holds %d names after %d distinct ones, want the cap %d", got, n, internCap)
	}
	long := strings.Repeat("n", internMaxLen+1)
	var in Interner
	r := NewReader(AppendString(nil, long), &in)
	if r.Name() != long || len(in.names) != 0 {
		t.Fatalf("a %d-byte name was interned", len(long))
	}
}

// TestDecodedStepsAreShared: the messages of a round read from one stream
// hold one step, a stream apart its own.
func TestDecodedStepsAreShared(t *testing.T) {
	g := goldenMessages()
	var stream bytes.Buffer
	for _, msg := range []Message{g[MsgReset-1], g[MsgAdaptDone-1], g[MsgResume-1]} {
		if err := WriteFrame(&stream, msg); err != nil {
			t.Fatal(err)
		}
	}
	again := append([]byte(nil), stream.Bytes()...)
	d := NewDecoder(&stream)
	var got []Message
	for i := 0; i < 3; i++ {
		msg, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, msg)
	}
	first := &got[0].Step.Participants[0]
	if &got[1].Step.Participants[0] != first || &got[2].Step.ResetPhases[0][0] != &got[0].Step.ResetPhases[0][0] {
		t.Error("three messages of one step on one stream decoded three steps")
	}
	other, err := NewDecoder(bytes.NewReader(again)).Next()
	if err != nil || &other.Step.Participants[0] == first {
		t.Errorf("two streams share a decoded step (%v)", err)
	}
	if p := got[0].Step.Participants; cap(p) != len(p) {
		t.Errorf("a decoded list has room to be appended to in place: len %d cap %d", len(p), cap(p))
	}
}

// decodeStep reads s back from AppendStep's bytes through in (nil: none).
func decodeStep(t *testing.T, s Step, in *Interner) Step {
	t.Helper()
	r := NewReader(AppendStep(nil, &s), in)
	got := r.Step()
	if err := r.Err(); err != nil {
		t.Fatalf("step %s %s: %v", s.ActionID, s.Key(), err)
	}
	return got
}

// TestStepShapeSharedAcrossAttempts: a retry of a step, or the same step in
// a later adaptation, differs from it only in PathIndex and Attempt. One
// reader decodes both to the step they were, holding one set of lists.
func TestStepShapeSharedAcrossAttempts(t *testing.T) {
	first := goldenStep()
	later := first
	later.PathIndex, later.Attempt = 0, first.Attempt+40
	var in Interner
	a, b := decodeStep(t, first, &in), decodeStep(t, later, &in)
	if !reflect.DeepEqual(a, first) || !reflect.DeepEqual(b, later) {
		t.Fatalf("decoded %+v and %+v, want %+v and %+v", a, b, first, later)
	}
	if &a.Ops[0] != &b.Ops[0] || &a.Participants[0] != &b.Participants[0] || &a.ResetPhases[0] != &b.ResetPhases[0] {
		t.Error("two attempts of one step shape decoded two sets of lists")
	}
}

// TestStepShapeTableIsBounded: ten times stepCap distinct step shapes
// through one reader, each decoded twice under two attempts, all decode as
// they do without an Interner and leave its table at the cap; a shape
// longer than stepMaxLen is decoded and not kept.
func TestStepShapeTableIsBounded(t *testing.T) {
	var in Interner
	for i := 0; i < 10*stepCap; i++ {
		s := goldenStep()
		s.ActionID = fmt.Sprintf("A%d", i)
		for _, attempt := range []int{1, 2} {
			s.Attempt = attempt
			if got, want := decodeStep(t, s, &in), decodeStep(t, s, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("shape %d attempt %d decoded as %+v, without an Interner %+v", i, attempt, got, want)
			}
		}
	}
	if got := len(in.steps); got != stepCap {
		t.Fatalf("the table holds %d shapes after %d distinct ones, want the cap %d", got, 10*stepCap, stepCap)
	}
	var fresh Interner
	long := goldenStep()
	long.Participants = []string{strings.Repeat("p", stepMaxLen)}
	if got := decodeStep(t, long, &fresh); !reflect.DeepEqual(got, long) || len(fresh.steps) != 0 {
		t.Fatalf("a step of more than %d bytes was kept (%d shapes) or misread", stepMaxLen, len(fresh.steps))
	}
}

// layoutTable renders the wire vocabulary the way DESIGN.md prints it.
func layoutTable() string {
	var b strings.Builder
	b.WriteString("| kind | fields, in order |\n|---|---|\n")
	for kind := MsgReset; int(kind) < len(layout); kind++ {
		var names []string
		for _, f := range layout[kind] {
			names = append(names, fieldSpec[f].name)
		}
		fmt.Fprintf(&b, "| %d `%s` | %s |\n", int(kind), kind, strings.Join(names, ", "))
	}
	b.WriteString("\n| field | on the wire |\n|---|---|\n")
	for f := field(0); f < numFields; f++ {
		fmt.Fprintf(&b, "| %s | %s |\n", fieldSpec[f].name, fieldSpec[f].wire)
	}
	return b.String()
}

// TestLayoutTableInDesign: DESIGN.md §5.10 prints the field table, and the
// table it prints is the one the codec walks.
func TestLayoutTableInDesign(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(design), "\n")
	for i := range lines {
		lines[i] = strings.TrimLeft(lines[i], " ") // the table sits in a list item
	}
	if want := layoutTable(); !strings.Contains(strings.Join(lines, "\n"), want) {
		t.Fatalf("DESIGN.md does not hold the wire layout as the codec has it; it should read:\n\n%s", want)
	}
}
