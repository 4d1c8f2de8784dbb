//go:build !race

package protocol

import (
	"bytes"
	"testing"
)

// TestEncodeAllocs: every golden message but the metric report (whose
// digest is JSON) encodes into a buffer with room for it without one
// allocation.
func TestEncodeAllocs(t *testing.T) {
	buf := make([]byte, 0, 1024)
	for _, msg := range goldenMessages() {
		if msg.Type == MsgMetricReport {
			continue
		}
		msg := msg
		if n := testing.AllocsPerRun(100, func() { buf, _ = appendFrame(buf[:0], &msg, false) }); n != 0 {
			t.Errorf("encoding a %s allocates %.0f times, want 0", msg.Type, n)
		}
	}
}

// loop is a stream that repeats one run of frames forever.
type loop struct {
	frames []byte
	at     int
}

func (l *loop) Read(p []byte) (int, error) {
	if l.at == len(l.frames) {
		l.at = 0
	}
	n := copy(p, l.frames[l.at:])
	l.at += n
	return n, nil
}

// TestDecoderNextAllocs: in the steady state of a connection — names seen,
// the round's step seen — a reply costs no allocation beyond a new trace id,
// and a reset whose step the decoder has not seen costs the step's three
// lists (ops, names, phases) and no more.
func TestDecoderNextAllocs(t *testing.T) {
	g := goldenMessages()
	frames := func(msgs ...Message) []byte {
		var buf bytes.Buffer
		for _, msg := range msgs {
			if err := WriteFrame(&buf, msg); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	next := func(d *Decoder) {
		if _, err := d.Next(); err != nil {
			t.Fatal(err)
		}
	}

	reply := NewDecoder(&loop{frames: frames(g[MsgAdaptDone-1])})
	next(reply)
	if n := testing.AllocsPerRun(200, func() { next(reply) }); n > 2 {
		t.Errorf("a reply in steady state costs %.1f allocations, want at most 2", n)
	}

	// Two resets in turn of one step shape at two path positions, under
	// two traces: the decoder keeps the shape, so each costs its trace id.
	other := g[MsgReset-1]
	other.Step.PathIndex++
	other.Trace.TraceID = "adapt-000018"
	resets := NewDecoder(&loop{frames: frames(g[MsgReset-1], other)})
	next(resets)
	next(resets)
	if n := testing.AllocsPerRun(200, func() { next(resets) }); n > 1 {
		t.Errorf("a reset of a step shape seen before costs %.1f allocations, want at most 1", n)
	}
}

// TestStepShapeDecodeAllocs: the second attempt of a step, decoded by the
// reader that decoded the first, costs nothing.
func TestStepShapeDecodeAllocs(t *testing.T) {
	step := goldenStep()
	var in Interner
	first := NewReader(AppendStep(nil, &step), &in)
	first.Step()
	step.Attempt++
	raw := AppendStep(nil, &step)
	if n := testing.AllocsPerRun(100, func() {
		r := NewReader(raw, &in)
		r.Step()
	}); n != 0 {
		t.Errorf("a known step shape under a new attempt decodes in %.0f allocations, want 0", n)
	}
}
