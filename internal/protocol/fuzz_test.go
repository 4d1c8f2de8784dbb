package protocol

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/action"
)

// FuzzReadFrame hardens the wire codec against corrupted streams:
// arbitrary bytes must never panic or over-allocate, and any frame that
// reads back must re-encode.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	_ = WriteFrame(&good, Message{Type: MsgReset, From: ManagerName, To: "handheld"})
	f.Add(good.Bytes())
	for _, frame := range retryFrames(f) {
		f.Add(frame)
	}
	f.Add([]byte{0, 0, 0, 1, '{'})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, msg); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ReadFrame(&buf)
		if err != nil && err != io.EOF {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Type != msg.Type || again.From != msg.From || again.To != msg.To {
			t.Fatal("round trip mismatch")
		}
	})
}

// retryFrames are frames that each decode one step shape twice, under two
// attempts: a batch of a reset and its retry, and a probe ack whose agent
// holds a retry of the step it last completed.
func retryFrames(tb testing.TB) [][]byte {
	step := goldenStep()
	retry := step
	retry.Attempt++
	var frames [][]byte
	for _, msg := range []Message{
		{Type: MsgBatch, From: ManagerName, To: "coordinator-0", Epoch: 3, Batch: []Message{
			{Type: MsgReset, From: ManagerName, To: "handheld", Step: step, Epoch: 3},
			{Type: MsgReset, From: ManagerName, To: "handheld", Step: retry, Epoch: 3},
		}},
		{Type: MsgProbeAck, From: "server", To: ManagerName, Step: retry, Epoch: 4,
			Probe: &ProbeInfo{State: "safe", Step: &retry, LastDone: &step}},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, msg); err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
	}
	return frames
}

// msgGen draws a Message from fuzz input. Strings come from a small
// alphabet of valid runes (the reference codec rewrites invalid UTF-8, which
// is its own business, not a property of messages); everything else is as
// wild as the bytes make it.
type msgGen struct{ b []byte }

func (g *msgGen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *msgGen) uint64() uint64 {
	var v uint64
	for i, n := 0, int(g.byte())%9; i < n; i++ {
		v = v<<8 | uint64(g.byte())
	}
	return v
}

func (g *msgGen) int() int { return int(int64(g.uint64())) }

func (g *msgGen) str() string {
	alphabet := []rune("aA1 -_/\"\\\n{<é“ \x00")
	n := int(g.byte()) % 5
	out := make([]rune, n)
	for i := range out {
		out[i] = alphabet[int(g.byte())%len(alphabet)]
	}
	return string(out)
}

// strs draws a list that is nil, empty or populated.
func (g *msgGen) strs() []string {
	n := int(g.byte()) % 5
	if n == 4 {
		return []string{}
	}
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = g.str()
	}
	return out
}

func (g *msgGen) step() Step {
	s := Step{
		PathIndex: g.int(), Attempt: g.int(), ActionID: g.str(),
		Participants: g.strs(), FromVector: g.str(), ToVector: g.str(),
	}
	for i, n := 0, int(g.byte())%3; i < n; i++ {
		s.Ops = append(s.Ops, action.Op{Kind: action.OpKind(g.int()), Old: g.str(), New: g.str()})
	}
	for i, n := 0, int(g.byte())%3; i < n; i++ {
		s.ResetPhases = append(s.ResetPhases, g.strs())
	}
	return s
}

func (g *msgGen) stepPtr() *Step {
	if g.byte()%2 == 0 {
		return nil
	}
	s := g.step()
	return &s
}

// message draws every field whatever the kind, and kinds from beyond the
// vocabulary too; enclose bounds the nesting of batch envelopes.
func (g *msgGen) message(enclose bool) Message {
	m := Message{
		Type: MsgType(int8(g.byte())),
		From: g.str(), To: g.str(), Step: g.step(), Error: g.str(), Epoch: g.uint64(),
		Trace:  TraceContext{TraceID: g.str(), SpanID: g.uint64(), Origin: g.str(), Lamport: g.uint64()},
		Agents: g.strs(),
	}
	if g.byte()%2 == 1 {
		m.Probe = &ProbeInfo{State: g.str(), Step: g.stepPtr(), LastDone: g.stepPtr(), AdaptDone: g.byte()%2 == 1}
	}
	if g.byte()%2 == 1 {
		r := &MetricReport{Interval: g.uint64(), Agents: g.strs()}
		for i, n := 0, int(g.byte())%3; i < n; i++ {
			r.Slowest = append(r.Slowest, AgentLatency{Agent: g.str(), Nanos: int64(g.uint64())})
		}
		if g.byte()%2 == 1 {
			r.Digest.Nodes = g.int()
			r.Digest.Counters = map[string]int64{g.str(): int64(g.uint64())}
			r.Digest.Gauges = map[string]int64{g.str(): int64(g.uint64()), g.str(): 0}
		}
		m.Report = r
	}
	for i, n := 0, int(g.byte())%3; enclose && i < n; i++ {
		m.Batch = append(m.Batch, g.message(false))
	}
	return m
}

// FuzzCodecMatchesJSON holds the wire codec to the reference from both
// ends. Forward: any message drawn from the input reads back from the wire
// as it reads back from JSON, an empty slice reading back nil being the one
// difference allowed. Backward: the input taken as a frame never panics the
// reader, and what it accepts re-encodes and reads back the same.
func FuzzCodecMatchesJSON(f *testing.F) {
	for _, msg := range goldenMessages() {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, msg); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, frame := range retryFrames(f) {
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add([]byte("02270800212200807080708000001001X0")) // draws an empty envelope inside an envelope

	f.Fuzz(func(t *testing.T, data []byte) {
		g := msgGen{b: data}
		msg := g.message(true)
		got, err := wireRoundTrip(msg)
		if err != nil {
			t.Fatalf("%+v: %v", msg, err)
		}
		if want := normalise(jsonRoundTrip(t, msg)); !reflect.DeepEqual(normalise(got), want) {
			t.Fatalf("the wire and the reference disagree:\n wire %+v\n json %+v", got, want)
		}

		dec, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := wireRoundTrip(dec)
		if err != nil {
			t.Fatalf("re-encode of an accepted frame: %v", err)
		}
		if !reflect.DeepEqual(normalise(again), normalise(dec)) {
			t.Fatalf("an accepted frame re-encodes to something else:\n got  %+v\n want %+v", again, dec)
		}
	})
}
