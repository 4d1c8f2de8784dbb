package protocol

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// A message travels as
//
//	[4-byte big-endian body length][body]
//
// and the body is one version byte, the kind, the fields the kind's row of
// layout names, in that order, in wire.go's primitives, and a count of
// extra fields (zero on everything the system sends). Encoder and decoder
// both walk the row, so what one writes the other reads. DESIGN.md §5.10
// prints the table.

// frameVersion is the body's leading byte. Version 0 never existed; the
// JSON bodies this layout replaced begin with '{'.
const frameVersion = 1

// maxFrameBody bounds a frame body.
const maxFrameBody = 1 << 24

// ErrUnknownVersion reports a frame whose body does not begin with a
// version this build reads — in practice a peer still speaking JSON. The
// connection that carried it is dropped; nothing is guessed from it.
var ErrUnknownVersion = errors.New("unknown frame version")

// field names one wire field of a Message.
type field uint8

const (
	fFrom field = iota
	fTo
	fEpoch
	fTrace
	fStep
	fError
	fAgents
	fProbe
	fBatch
	fReport
	numFields
)

// fieldSpec describes each field, for the layout table in DESIGN.md and for
// decode errors.
var fieldSpec = [numFields]struct{ name, wire string }{
	fFrom:   {"from", "name"},
	fTo:     {"to", "name"},
	fEpoch:  {"epoch", "uvarint"},
	fTrace:  {"trace", "trace id (last one kept), span uvarint, origin name, lamport uvarint"},
	fStep:   {"step", "Step layout (names; each shape kept)"},
	fError:  {"error", "string"},
	fAgents: {"agents", "names"},
	fProbe:  {"probe", "presence byte; state name, flags byte, the steps the flags announce"},
	fBatch:  {"batch", "count, then that many whole frames, none of them a batch"},
	fReport: {"report", "presence byte; interval uvarint, agents names, slowest count × (name, varint), digest JSON string"},
}

// layout is the wire vocabulary: the fields each kind carries, in order.
var layout = [...][]field{
	MsgReset:        row(fStep),
	MsgResetDone:    row(fStep, fAgents),
	MsgResetFailed:  row(fStep, fError),
	MsgAdaptDone:    row(fStep, fAgents),
	MsgAdaptFailed:  row(fStep, fError),
	MsgResume:       row(fStep),
	MsgResumeDone:   row(fStep, fAgents),
	MsgRollback:     row(fStep),
	MsgRollbackDone: row(fStep, fAgents),
	MsgHello:        row(fAgents),
	MsgHeartbeat:    row(fStep),
	MsgProbe:        row(fStep),
	MsgProbeAck:     row(fStep, fProbe),
	MsgBatch:        row(fStep, fBatch),
	MsgMetricReport: row(fReport),
}

// row is a kind's fields behind the header every message carries.
func row(fields ...field) []field {
	return append([]field{fFrom, fTo, fEpoch, fTrace}, fields...)
}

// header is the row of a kind the vocabulary lacks (a newer peer's, say):
// such a message still crosses, for its receiver to ignore.
var header = row()

// rowOf returns the kind's row.
func rowOf(t MsgType) []field {
	if t <= 0 || int(t) >= len(layout) {
		return header
	}
	return layout[t]
}

// set reports whether m holds anything in the field.
func (f field) set(m *Message) bool {
	switch f {
	case fFrom:
		return m.From != ""
	case fTo:
		return m.To != ""
	case fEpoch:
		return m.Epoch != 0
	case fTrace:
		return !m.Trace.IsZero()
	case fStep:
		s := &m.Step
		return s.PathIndex != 0 || s.Attempt != 0 || s.ActionID != "" || len(s.Ops) > 0 ||
			len(s.Participants) > 0 || len(s.ResetPhases) > 0 || s.FromVector != "" || s.ToVector != ""
	case fError:
		return m.Error != ""
	case fAgents:
		return len(m.Agents) > 0
	case fProbe:
		return m.Probe != nil
	case fBatch:
		return len(m.Batch) > 0
	case fReport:
		return m.Report != nil
	}
	return false
}

// Probe flag bits.
const (
	probeHasStep = 1 << iota
	probeHasLastDone
	probeAdaptDone
)

// put appends m's field.
func (f field) put(b []byte, m *Message) ([]byte, error) {
	switch f {
	case fFrom:
		b = AppendString(b, m.From)
	case fTo:
		b = AppendString(b, m.To)
	case fEpoch:
		b = binary.AppendUvarint(b, m.Epoch)
	case fTrace:
		b = AppendString(b, m.Trace.TraceID)
		b = binary.AppendUvarint(b, m.Trace.SpanID)
		b = AppendString(b, m.Trace.Origin)
		b = binary.AppendUvarint(b, m.Trace.Lamport)
	case fStep:
		b = AppendStep(b, &m.Step)
	case fError:
		b = AppendString(b, m.Error)
	case fAgents:
		b = AppendStrings(b, m.Agents)
	case fProbe:
		p := m.Probe
		if p == nil {
			return append(b, 0), nil
		}
		var flags byte
		if p.Step != nil {
			flags |= probeHasStep
		}
		if p.LastDone != nil {
			flags |= probeHasLastDone
		}
		if p.AdaptDone {
			flags |= probeAdaptDone
		}
		b = AppendString(append(b, 1), p.State)
		b = append(b, flags)
		if p.Step != nil {
			b = AppendStep(b, p.Step)
		}
		if p.LastDone != nil {
			b = AppendStep(b, p.LastDone)
		}
	case fBatch:
		b = binary.AppendUvarint(b, uint64(len(m.Batch)))
		for i := range m.Batch {
			var err error
			if b, err = appendFrame(b, &m.Batch[i], true); err != nil {
				return b, err
			}
		}
	case fReport:
		rep := m.Report
		if rep == nil {
			return append(b, 0), nil
		}
		b = binary.AppendUvarint(append(b, 1), rep.Interval)
		b = AppendStrings(b, rep.Agents)
		b = binary.AppendUvarint(b, uint64(len(rep.Slowest)))
		for _, s := range rep.Slowest {
			b = AppendString(b, s.Agent)
			b = binary.AppendVarint(b, s.Nanos)
		}
		// The digest is free-form (metric names are the deployment's own)
		// and rare; its canonical JSON stays the one definition of it.
		digest, err := json.Marshal(rep.Digest)
		if err != nil {
			return b, err
		}
		b = binary.AppendUvarint(b, uint64(len(digest)))
		b = append(b, digest...)
	}
	return b, nil
}

// get reads m's field.
func (f field) get(r *Reader, m *Message) error {
	switch f {
	case fFrom:
		m.From = r.Name()
	case fTo:
		m.To = r.Name()
	case fEpoch:
		m.Epoch = r.Uvarint()
	case fTrace:
		m.Trace = TraceContext{TraceID: r.TraceID(), SpanID: r.Uvarint(), Origin: r.Name(), Lamport: r.Uvarint()}
	case fStep:
		m.Step = r.Step()
	case fError:
		m.Error = r.String()
	case fAgents:
		m.Agents = r.Names()
	case fProbe:
		if r.Byte() == 0 {
			return nil
		}
		p := &ProbeInfo{State: r.Name()}
		flags := r.Byte()
		if flags&probeHasStep != 0 {
			s := r.Step()
			p.Step = &s
		}
		if flags&probeHasLastDone != 0 {
			s := r.Step()
			p.LastDone = &s
		}
		p.AdaptDone = flags&probeAdaptDone != 0
		m.Probe = p
	case fBatch:
		n := r.Count(minFrame)
		if n == 0 {
			return nil
		}
		m.Batch = make([]Message, n)
		for i := range m.Batch {
			rest := r.Rest()
			if len(rest) < 4 {
				return errMalformed
			}
			size := int(binary.BigEndian.Uint32(rest))
			if size > len(rest)-4 {
				return fmt.Errorf("enclosed frame %d of %d claims %d of the %d bytes left", i+1, n, size, len(rest)-4)
			}
			if err := decodeBody(rest[4:4+size], r.in, &m.Batch[i], true); err != nil {
				return err
			}
			r.Skip(4 + size)
		}
	case fReport:
		if r.Byte() == 0 {
			return nil
		}
		rep := &MetricReport{Interval: r.Uvarint(), Agents: r.Names()}
		if n := r.Count(2); n > 0 {
			rep.Slowest = make([]AgentLatency, n)
			for i := range rep.Slowest {
				rep.Slowest[i] = AgentLatency{Agent: r.Name(), Nanos: r.Varint()}
			}
		}
		if digest := r.bytes(); !r.bad {
			if err := json.Unmarshal(digest, &rep.Digest); err != nil {
				return fmt.Errorf("digest: %w", err)
			}
		}
		m.Report = rep
	}
	return nil
}

// minFrame is the shortest frame there is: length, version, kind, the
// four header fields at a byte each or more, and the extras count.
const minFrame = 4 + 2 + 7 + 1

// appendFrame appends m's frame to dst; on error dst comes back unchanged.
// enclosed says the frame sits inside a batch, where a second batch is
// refused: nesting has no user, and a reader must not be made to recurse
// as deep as a peer likes.
func appendFrame(dst []byte, m *Message, enclosed bool) ([]byte, error) {
	if enclosed && fBatch.set(m) {
		return dst, errors.New("a batch encloses a batch")
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, frameVersion)
	dst = binary.AppendVarint(dst, int64(m.Type))
	var err error
	carried := 0
	for _, f := range rowOf(m.Type) {
		if dst, err = f.put(dst, m); err != nil {
			return dst[:start], fmt.Errorf("%s: %w", m.Type, err)
		}
		carried |= 1 << f
	}
	// Extras: whatever else the message holds, each behind its field
	// number. Nothing the system sends has any; a message that does loses
	// nothing, as it lost nothing to JSON.
	extras := len(dst)
	dst = append(dst, 0)
	for f := field(0); f < numFields; f++ {
		if carried&(1<<f) != 0 || !f.set(m) {
			continue
		}
		dst[extras]++
		if dst, err = f.put(append(dst, byte(f)), m); err != nil {
			return dst[:start], fmt.Errorf("%s: %w", m.Type, err)
		}
	}
	n := len(dst) - start - 4
	if n > maxFrameBody {
		return dst[:start], fmt.Errorf("message too large (%d bytes)", n)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// decodeBody decodes one frame body into m.
func decodeBody(body []byte, in *Interner, m *Message, enclosed bool) error {
	if len(body) == 0 || body[0] != frameVersion {
		var lead byte
		if len(body) > 0 {
			lead = body[0]
		}
		return fmt.Errorf("%w %#x (a peer speaking the older JSON frames?)", ErrUnknownVersion, lead)
	}
	r := NewReader(body[1:], in)
	m.Type = MsgType(r.Int())
	seen := 0
	read := func(f field) error {
		if f >= numFields || seen&(1<<f) != 0 {
			return fmt.Errorf("%s: extra field %d: %w", m.Type, f, errMalformed)
		}
		seen |= 1 << f
		if f == fBatch && enclosed {
			if r.Byte() != 0 {
				return errors.New("a batch encloses a batch")
			}
			return nil
		}
		if err := f.get(&r, m); err != nil {
			return fmt.Errorf("%s: %s: %w", m.Type, fieldSpec[f].name, err)
		}
		return nil
	}
	for _, f := range rowOf(m.Type) {
		if err := read(f); err != nil {
			return err
		}
	}
	for extras := r.Byte(); extras > 0; extras-- {
		if err := read(field(r.Byte())); err != nil {
			return err
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%s: %w", m.Type, err)
	}
	return nil
}

// frameBuffers recycles WriteFrame's encode buffers.
var frameBuffers = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledFrame keeps the odd huge frame (a fleet-wide batch, a metric
// rollup) from pinning its buffer in a pool.
const maxPooledFrame = 64 << 10

// WriteFrame writes msg's frame to w in one Write: a TCP transport spends
// one system call and one segment on a message.
func WriteFrame(w io.Writer, msg Message) error {
	buf := frameBuffers.Get().(*[]byte)
	frame, err := appendFrame((*buf)[:0], &msg, false)
	if err != nil {
		err = fmt.Errorf("protocol: encode: %w", err)
	} else if _, werr := w.Write(frame); werr != nil {
		err = fmt.Errorf("protocol: write: %w", werr)
	}
	if cap(frame) <= maxPooledFrame {
		*buf = frame
		frameBuffers.Put(buf)
	}
	return err
}

// Decoder reads the frames of one stream. It owns what decoding one frame
// can hand the next: the body buffer and an Interner. No message it returns
// aliases the buffer; messages do share decoded steps (Reader.Step). A
// Decoder belongs to the goroutine reading the stream.
type Decoder struct {
	r    io.Reader
	hdr  [4]byte
	body []byte
	in   Interner
}

// NewDecoder reads frames from r, exactly: it never reads past the frame
// it returns, so r decides the buffering — a connection's read loop passes
// a bufio.Reader and spends one system call on a frame or on many.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// Next reads one message. io.EOF means the stream ended between frames.
func (d *Decoder) Next() (Message, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		return Message{}, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(d.hdr[:])
	if n == 0 || n > maxFrameBody {
		return Message{}, fmt.Errorf("protocol: invalid frame length %d", n)
	}
	var err error
	if d.body, err = ReadBody(d.r, d.body, int(n)); err != nil {
		return Message{}, fmt.Errorf("protocol: read body: %w", err)
	}
	var msg Message
	if err := decodeBody(d.body, &d.in, &msg, false); err != nil {
		return Message{}, fmt.Errorf("protocol: decode: %w", err)
	}
	return msg, nil
}

// decoders recycles ReadFrame's decode state.
var decoders = sync.Pool{New: func() any { return new(Decoder) }}

// ReadFrame reads one message from r, and not a byte more. A caller with a
// stream to read keeps a Decoder instead.
func ReadFrame(r io.Reader) (Message, error) {
	d := decoders.Get().(*Decoder)
	d.r = r
	msg, err := d.Next()
	d.r = nil
	if cap(d.body) <= maxPooledFrame {
		decoders.Put(d)
	}
	return msg, err
}
