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

	// Two resets of different steps in turn: each is first-seen again by
	// the time it comes round, the names are not.
	other := g[MsgReset-1]
	other.Step.PathIndex++
	other.Trace.TraceID = "adapt-000018"
	resets := NewDecoder(&loop{frames: frames(g[MsgReset-1], other)})
	next(resets)
	next(resets)
	if n := testing.AllocsPerRun(200, func() { next(resets) }); n > 4 {
		t.Errorf("a reset with a step not seen before costs %.1f allocations, want at most 4", n)
	}
}
