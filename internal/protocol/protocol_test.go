package protocol

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/action"
	"repro/internal/telemetry"
)

func sampleMessage() Message {
	return Message{
		Type: MsgReset,
		From: ManagerName,
		To:   "handheld",
		Step: Step{
			PathIndex:    2,
			Attempt:      5,
			ActionID:     "A2",
			Ops:          []action.Op{{Kind: action.Replace, Old: "D1", New: "D2"}},
			Participants: []string{"handheld"},
			ResetPhases:  [][]string{{"server"}, {"handheld"}},
			FromVector:   "0100101",
			ToVector:     "0101001",
		},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msg := sampleMessage()
	if err := WriteFrame(&buf, msg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != msg.Type || got.To != msg.To || got.Step.ActionID != msg.Step.ActionID {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if len(got.Step.Ops) != 1 || got.Step.Ops[0] != msg.Step.Ops[0] {
		t.Errorf("ops mismatch: %+v", got.Step.Ops)
	}
	if len(got.Step.ResetPhases) != 2 {
		t.Errorf("phases mismatch: %+v", got.Step.ResetPhases)
	}
}

// writeCounter counts the Write calls a frame costs its connection.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameIsOneWrite: header and body reach the connection in one
// Write — one system call and one TCP segment per message — byte for byte
// the golden frame, and the encode costs at most one allocation.
func TestWriteFrameIsOneWrite(t *testing.T) {
	msg := goldenMessages()[0]
	var w writeCounter
	if err := WriteFrame(&w, msg); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("one frame took %d writes", w.writes)
	}
	if want := goldenFrame(t, msg.Type); !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("wire bytes changed:\n got  %x\n want %x", w.Bytes(), want)
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(200, func() { _ = WriteFrame(io.Discard, msg) }); n > 1 {
		t.Fatalf("WriteFrame allocates %.0f times per message, want at most 1", n)
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		msg := sampleMessage()
		msg.Step.PathIndex = i
		if err := WriteFrame(&buf, msg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Step.PathIndex != i {
			t.Errorf("frame %d out of order: %d", i, got.Step.PathIndex)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, sampleMessage()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{1, 3, 4, len(raw) - 1} {
		if _, err := ReadFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncated at %d should fail", cut)
		}
	}
}

func TestReadFrameInvalidLength(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Error("zero-length frame should fail")
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})); err == nil {
		t.Error("oversized frame should fail")
	}
}

// TestReadFrameBadJSON: a body that opens like JSON — what a peer of the
// older build sends — is refused by its first byte, as an unknown version.
func TestReadFrameBadJSON(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 3})
	buf.WriteString("{{{")
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrUnknownVersion) || !strings.Contains(err.Error(), "decode") {
		t.Errorf("a JSON body should fail to decode with the version error, got %v", err)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	names := map[MsgType]string{
		MsgReset:        "reset",
		MsgResetDone:    "reset done",
		MsgResetFailed:  "reset failed",
		MsgAdaptDone:    "adapt done",
		MsgAdaptFailed:  "adapt failed",
		MsgResume:       "resume",
		MsgResumeDone:   "resume done",
		MsgRollback:     "rollback",
		MsgRollbackDone: "rollback done",
		MsgHello:        "hello",
	}
	for typ, want := range names {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(typ), typ, want)
		}
	}
	if !strings.Contains(MsgType(99).String(), "99") {
		t.Error("unknown type should render its number")
	}
}

func TestStepOpsFor(t *testing.T) {
	step := Step{
		Ops: []action.Op{
			{Kind: action.Replace, Old: "D1", New: "D2"},
			{Kind: action.Replace, Old: "E1", New: "E2"},
			{Kind: action.Insert, New: "D5"},
		},
	}
	processOf := func(c string) string {
		switch c {
		case "D1", "D2":
			return "handheld"
		case "E1", "E2":
			return "server"
		default:
			return "laptop"
		}
	}
	hh := step.OpsFor("handheld", processOf)
	if len(hh) != 1 || hh[0].Old != "D1" {
		t.Errorf("handheld ops = %+v", hh)
	}
	lp := step.OpsFor("laptop", processOf)
	if len(lp) != 1 || lp[0].New != "D5" {
		t.Errorf("laptop ops = %+v", lp)
	}
	if none := step.OpsFor("nowhere", processOf); len(none) != 0 {
		t.Errorf("unexpected ops %+v", none)
	}
}

// TestStepOpsForAliasesAWholeShare: when a process hosts every operation
// of a step, its share is the step's own operations with cap == len, so
// an append cannot write into the step; a mixed step's share is a copy.
func TestStepOpsForAliasesAWholeShare(t *testing.T) {
	processOf := func(c string) string {
		if strings.HasPrefix(c, "D") {
			return "handheld"
		}
		return "server"
	}
	ops := make([]action.Op, 2, 4)
	ops[0] = action.Op{Kind: action.Replace, Old: "D1", New: "D2"}
	ops[1] = action.Op{Kind: action.Insert, New: "D5"}
	whole := Step{Ops: ops}
	got := whole.OpsFor("handheld", processOf)
	if len(got) != 2 || cap(got) != 2 || &got[0] != &ops[0] {
		t.Fatalf("whole share: len %d cap %d, aliases the step: %v; want the step's 2 ops, cap 2", len(got), cap(got), len(got) > 0 && &got[0] == &ops[0])
	}
	_ = append(got, action.Op{Kind: action.Insert, New: "D9"})
	if spare := ops[:3][2]; spare != (action.Op{}) {
		t.Errorf("an append to the share wrote %+v into the step's spare capacity", spare)
	}

	mixed := Step{Ops: []action.Op{
		{Kind: action.Replace, Old: "E1", New: "E2"},
		{Kind: action.Replace, Old: "D1", New: "D2"},
	}}
	hh := mixed.OpsFor("handheld", processOf)
	if len(hh) != 1 || &hh[0] == &mixed.Ops[1] {
		t.Fatalf("mixed share = %+v; want a copy of the one handheld op", hh)
	}
	hh[0].New = "D9"
	if mixed.Ops[1].New != "D2" {
		t.Error("writing a mixed step's share changed the step")
	}
}

// TestPropertyFrameRoundTrip fuzzes the codec with random field values.
func TestPropertyFrameRoundTrip(t *testing.T) {
	f := func(typ uint8, from, to, actionID string, pathIndex, attempt int) bool {
		msg := Message{
			Type: MsgType(int(typ)%10 + 1),
			From: from, To: to,
			Step: Step{PathIndex: pathIndex, Attempt: attempt, ActionID: actionID},
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, msg); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		return err == nil &&
			got.Type == msg.Type && got.From == from && got.To == to &&
			got.Step.PathIndex == pathIndex && got.Step.Attempt == attempt &&
			got.Step.ActionID == actionID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// jsonRoundTrip is the reference codec: the JSON encoding every frame body
// was until the binary layout replaced it. A Message means what it reads
// back as from here, and the wire codec is held to exactly that.
func jsonRoundTrip(t testing.TB, msg Message) Message {
	t.Helper()
	body, err := json.Marshal(msg)
	if err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	var out Message
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	return out
}

// wireRoundTrip sends msg through WriteFrame and ReadFrame.
func wireRoundTrip(msg Message) (Message, error) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, msg); err != nil {
		return Message{}, err
	}
	return ReadFrame(&buf)
}

// normalise applies the one difference the wire codec is allowed against
// the reference: an empty slice reads back nil.
func normalise(m Message) Message {
	m.Step = normaliseStep(m.Step)
	if len(m.Agents) == 0 {
		m.Agents = nil
	}
	if len(m.Batch) == 0 {
		m.Batch = nil
	} else {
		batch := make([]Message, len(m.Batch))
		for i, inner := range m.Batch {
			batch[i] = normalise(inner)
		}
		m.Batch = batch
	}
	if m.Probe != nil {
		p := *m.Probe
		for _, sp := range []**Step{&p.Step, &p.LastDone} {
			if *sp != nil {
				s := normaliseStep(**sp)
				*sp = &s
			}
		}
		m.Probe = &p
	}
	if m.Report != nil {
		r := *m.Report
		if len(r.Agents) == 0 {
			r.Agents = nil
		}
		if len(r.Slowest) == 0 {
			r.Slowest = nil
		}
		m.Report = &r
	}
	return m
}

func normaliseStep(s Step) Step {
	if len(s.Ops) == 0 {
		s.Ops = nil
	}
	if len(s.Participants) == 0 {
		s.Participants = nil
	}
	if len(s.ResetPhases) == 0 {
		s.ResetPhases = nil
	} else {
		phases := make([][]string, len(s.ResetPhases))
		for i, p := range s.ResetPhases {
			if len(p) > 0 {
				phases[i] = p
			}
		}
		s.ResetPhases = phases
	}
	return s
}

// goldenStep is the step the golden frames share: two processes, two
// reset phases, one replace.
func goldenStep() Step {
	return Step{
		PathIndex: 2, Attempt: 5, ActionID: "A2",
		Ops:          []action.Op{{Kind: action.Replace, Old: "D1", New: "D2"}, {Kind: action.Insert, New: "E2"}},
		Participants: []string{"handheld", "server"},
		ResetPhases:  [][]string{{"server"}, {"handheld"}},
		FromVector:   "0100101", ToVector: "0101001",
	}
}

// goldenMessages is one message per kind, in kind order, each carrying
// every field its kind uses in the running system.
func goldenMessages() []Message {
	step := goldenStep()
	echo := Step{PathIndex: 2, Attempt: 5, ActionID: "A2"}
	done := Step{PathIndex: 1, Attempt: 4, ActionID: "A1", FromVector: "0100101", ToVector: "0100101"}
	down := TraceContext{TraceID: "adapt-000017", SpanID: 9, Origin: ManagerName, Lamport: 41}
	up := TraceContext{TraceID: "adapt-000017", Origin: "handheld", Lamport: 44}
	var digest telemetry.Digest
	digest.Nodes = 2
	digest.Counters = map[string]int64{"agent.resets": 3, "agent.fenced": 0}
	digest.Gauges = map[string]int64{"agent.state": 1}
	return []Message{
		{Type: MsgReset, From: ManagerName, To: "handheld", Step: step, Epoch: 3, Trace: down},
		{Type: MsgResetDone, From: "coordinator-0", To: ManagerName, Step: echo, Epoch: 3, Trace: up, Agents: []string{"handheld", "server"}},
		{Type: MsgResetFailed, From: "handheld", To: ManagerName, Step: echo, Epoch: 3, Trace: up, Error: "reset: timed out after 2s — “drain”"},
		{Type: MsgAdaptDone, From: "handheld", To: ManagerName, Step: step, Epoch: 3, Trace: up},
		{Type: MsgAdaptFailed, From: "server", To: ManagerName, Step: echo, Epoch: 3, Error: "in-action: no such component"},
		{Type: MsgResume, From: ManagerName, To: "server", Step: step, Epoch: 3, Trace: down},
		{Type: MsgResumeDone, From: "server", To: ManagerName, Step: step, Epoch: 3, Trace: up},
		{Type: MsgRollback, From: ManagerName, To: "handheld", Step: step, Epoch: 1 << 40},
		{Type: MsgRollbackDone, From: "handheld", To: ManagerName, Step: echo},
		{Type: MsgHello, From: "coordinator-0", Agents: []string{"handheld", "server"}},
		{Type: MsgHeartbeat, From: ManagerName, To: "handheld", Step: echo, Epoch: 3},
		{Type: MsgProbe, From: ManagerName, To: "server", Step: step, Epoch: 4, Trace: down},
		{Type: MsgProbeAck, From: "server", To: ManagerName, Step: echo, Epoch: 4, Trace: up,
			Probe: &ProbeInfo{State: "adapted", Step: &step, LastDone: &done, AdaptDone: true}},
		{Type: MsgBatch, From: ManagerName, To: "coordinator-0", Step: step, Epoch: 3, Trace: down, Batch: []Message{
			{Type: MsgReset, From: ManagerName, To: "handheld", Epoch: 3, Trace: down},
			{Type: MsgReset, From: ManagerName, To: "server", Epoch: 3, Trace: down},
		}},
		{Type: MsgMetricReport, From: "coordinator-0", To: ManagerName, Epoch: 3, Trace: up, Report: &MetricReport{
			Interval: 12, Agents: []string{"handheld", "server"},
			Slowest: []AgentLatency{{Agent: "server", Nanos: 2_400_000}, {Agent: "handheld", Nanos: 900_000}},
			Digest:  digest,
		}},
	}
}

// goldenFrames are the frames of goldenMessages, checked in: the wire
// layout, version 1, byte for byte.
var goldenFrames = map[MsgType]string{
	MsgReset:        "000000720102076d616e616765720868616e6468656c64030c61646170742d30303030313709076d616e6167657229040a02413202060244310244320200024532020868616e6468656c6406736572766572020106736572766572010868616e6468656c640730313030313031073031303130303100",
	MsgResetDone:    "0000004d01040d636f6f7264696e61746f722d30076d616e61676572030c61646170742d303030303137000868616e6468656c642c040a0241320000000000020868616e6468656c640673657276657200",
	MsgResetFailed:  "0000006101060868616e6468656c64076d616e61676572030c61646170742d303030303137000868616e6468656c642c040a02413200000000002972657365743a2074696d6564206f757420616674657220327320e2809420e2809c647261696ee2809d00",
	MsgAdaptDone:    "0000007401080868616e6468656c64076d616e61676572030c61646170742d303030303137000868616e6468656c642c040a02413202060244310244320200024532020868616e6468656c6406736572766572020106736572766572010868616e6468656c64073031303031303107303130313030310000",
	MsgAdaptFailed:  "0000003e010a06736572766572076d616e616765720300000000040a02413200000000001c696e2d616374696f6e3a206e6f207375636820636f6d706f6e656e7400",
	MsgResume:       "00000070010c076d616e6167657206736572766572030c61646170742d30303030313709076d616e6167657229040a02413202060244310244320200024532020868616e6468656c6406736572766572020106736572766572010868616e6468656c640730313030313031073031303130303100",
	MsgResumeDone:   "00000072010e06736572766572076d616e61676572030c61646170742d303030303137000868616e6468656c642c040a02413202060244310244320200024532020868616e6468656c6406736572766572020106736572766572010868616e6468656c64073031303031303107303130313030310000",
	MsgRollback:     "000000640110076d616e616765720868616e6468656c6480808080802000000000040a02413202060244310244320200024532020868616e6468656c6406736572766572020106736572766572010868616e6468656c640730313030313031073031303130303100",
	MsgRollbackDone: "0000002401120868616e6468656c64076d616e616765720000000000040a02413200000000000000",
	MsgHello:        "0000002801140d636f6f7264696e61746f722d30000000000000020868616e6468656c640673657276657200",
	MsgHeartbeat:    "000000230116076d616e616765720868616e6468656c640300000000040a024132000000000000",
	MsgProbe:        "000000700118076d616e6167657206736572766572040c61646170742d30303030313709076d616e6167657229040a02413202060244310244320200024532020868616e6468656c6406736572766572020106736572766572010868616e6468656c640730313030313031073031303130303100",
	MsgProbeAck:     "0000009d011a06736572766572076d616e61676572040c61646170742d303030303137000868616e6468656c642c040a024132000000000001076164617074656407040a02413202060244310244320200024532020868616e6468656c6406736572766572020106736572766572010868616e6468656c640730313030313031073031303130303102080241310000000730313030313031073031303031303100",
	MsgBatch:        "000000e6011c076d616e616765720d636f6f7264696e61746f722d30030c61646170742d30303030313709076d616e6167657229040a02413202060244310244320200024532020868616e6468656c6406736572766572020106736572766572010868616e6468656c640730313030313031073031303130303102000000340102076d616e616765720868616e6468656c64030c61646170742d30303030313709076d616e6167657229000000000000000000000000320102076d616e6167657206736572766572030c61646170742d30303030313709076d616e616765722900000000000000000000",
	MsgMetricReport: "000000b3011e0d636f6f7264696e61746f722d30076d616e61676572030c61646170742d303030303137000868616e6468656c642c010c020868616e6468656c6406736572766572020673657276657280fca4020868616e6468656c64c0ee6d557b226e6f646573223a322c22636f756e74657273223a7b226167656e742e66656e636564223a302c226167656e742e726573657473223a337d2c22676175676573223a7b226167656e742e7374617465223a317d7d00",
}

func goldenFrame(t testing.TB, kind MsgType) []byte {
	t.Helper()
	frame, err := hex.DecodeString(goldenFrames[kind])
	if err != nil || len(frame) == 0 {
		t.Fatalf("no golden frame for %s (%v)", kind, err)
	}
	return frame
}

// TestGoldenFramePerKind: one message of every kind encodes to its checked-in
// frame, and that frame reads back as the reference codec reads the message
// back.
func TestGoldenFramePerKind(t *testing.T) {
	msgs := goldenMessages()
	if len(msgs) != int(MsgMetricReport) {
		t.Fatalf("%d golden messages for %d kinds", len(msgs), int(MsgMetricReport))
	}
	for i, msg := range msgs {
		if msg.Type != MsgType(i+1) {
			t.Fatalf("golden message %d is a %s", i, msg.Type)
		}
		golden := goldenFrame(t, msg.Type)
		if frame, err := appendFrame(nil, &msg, false); err != nil || !bytes.Equal(frame, golden) {
			t.Errorf("%s: the wire layout changed (%v):\n got  %x\n want %x", msg.Type, err, frame, golden)
		}
		got, err := ReadFrame(bytes.NewReader(golden))
		if err != nil {
			t.Fatalf("%s: %v", msg.Type, err)
		}
		if want := normalise(jsonRoundTrip(t, msg)); !reflect.DeepEqual(normalise(got), want) {
			t.Errorf("%s read back as\n got  %+v\n want %+v", msg.Type, got, want)
		}
		if !reflect.DeepEqual(normalise(got), normalise(msg)) {
			t.Errorf("%s changed on the wire:\n got  %+v\n sent %+v", msg.Type, got, msg)
		}
	}
}
