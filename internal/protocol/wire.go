package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/action"
)

// This file is the one set of binary primitives under the message frames
// (codec.go), the journal's records and the replication stream: unsigned
// integers as uvarints, signed ones as zigzag varints, a string as its
// uvarint length and bytes, a list as its uvarint count and elements. An
// empty list and a nil one encode alike and decode to nil. A count is
// checked against the bytes left before anything is sized by it.

// AppendString appends s as its length and bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendStrings appends ss as its count and strings.
func AppendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// AppendStep appends s in the Step layout: its fields in declaration order.
// Reader.Step reads it back.
func AppendStep(b []byte, s *Step) []byte {
	b = binary.AppendVarint(b, int64(s.PathIndex))
	b = binary.AppendVarint(b, int64(s.Attempt))
	b = AppendString(b, s.ActionID)
	b = binary.AppendUvarint(b, uint64(len(s.Ops)))
	for _, op := range s.Ops {
		b = binary.AppendVarint(b, int64(op.Kind))
		b = AppendString(b, op.Old)
		b = AppendString(b, op.New)
	}
	b = AppendStrings(b, s.Participants)
	b = binary.AppendUvarint(b, uint64(len(s.ResetPhases)))
	for _, phase := range s.ResetPhases {
		b = AppendStrings(b, phase)
	}
	b = AppendString(b, s.FromVector)
	return AppendString(b, s.ToVector)
}

// Interner is what one reader of a stream remembers between the bodies it
// decodes, so that the handful of names a deployment speaks in — endpoints,
// action ids, components, bit vectors, record kinds — and the step shapes
// every adaptation repeats are materialised once and shared. A step's shape
// is all of it but its PathIndex and Attempt. Both tables are bounded: past
// internCap names or stepCap shapes, or for a name longer than internMaxLen
// or a shape longer than stepMaxLen, the value is simply decoded afresh, so
// a hostile peer can fill a table but not grow it. The zero value is ready;
// an Interner belongs to one goroutine.
type Interner struct {
	names map[string]string
	// Decoded steps that cost anything to decode, by the bytes of their
	// shape; a hit takes PathIndex and Attempt from the bytes it reads.
	steps map[string]Step
	// The last trace id (one per adaptation, so never worth a table entry).
	trace string
}

const (
	internCap    = 256
	internMaxLen = 64
	stepCap      = 64
	stepMaxLen   = 4 << 10
)

func (in *Interner) intern(b []byte) string {
	if s, ok := in.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(in.names) < internCap && len(b) <= internMaxLen {
		if in.names == nil {
			in.names = make(map[string]string)
		}
		in.names[s] = s
	}
	return s
}

// Reader consumes a body. The first malformed field marks it bad and every
// later read returns a zero value, so a decoder checks Err once, at the end.
// With an Interner, Name, Names and Step draw on it; without, they allocate.
type Reader struct {
	b   []byte
	bad bool
	in  *Interner
	// Step's two passes: a dry walk materialises nothing and counts the
	// names its lists hold; the second pass cuts those lists from one slab.
	dry   bool
	names int
	slab  []string
}

// NewReader reads body, interning through in when it is non-nil.
func NewReader(body []byte, in *Interner) Reader { return Reader{b: body, in: in} }

func (r *Reader) fail() {
	r.bad = true
	r.b = nil
}

// Rest is the unread part of the body.
func (r *Reader) Rest() []byte { return r.b }

// Skip consumes n bytes a caller decoded out of Rest itself.
func (r *Reader) Skip(n int) {
	if n < 0 || n > len(r.b) {
		r.fail()
		return
	}
	r.b = r.b[n:]
}

// Err reports a malformed field, or bytes left over behind the last one.
func (r *Reader) Err() error {
	switch {
	case r.bad:
		return errMalformed
	case len(r.b) != 0:
		return fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return nil
}

var errMalformed = errors.New("malformed or truncated field")

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if len(r.b) == 0 {
		r.fail()
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Uvarint reads an unsigned integer.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a signed integer.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads a signed integer that must fit an int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.fail()
		return 0
	}
	return int(v)
}

// Count reads an element count, each element occupying at least size bytes:
// a count the bytes left cannot hold is malformed, which is also what keeps
// a hostile count from sizing an allocation.
func (r *Reader) Count(size int) int {
	v := r.Uvarint()
	if v > uint64(len(r.b)/size) {
		r.fail()
		return 0
	}
	return int(v)
}

// bytes reads a length-prefixed run of bytes, aliasing the body.
func (r *Reader) bytes() []byte {
	n := r.Count(1)
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

// String reads a string into memory of its own: free-form text (an error,
// a plan, a reason) that no later body is likely to repeat.
func (r *Reader) String() string { return string(r.bytes()) }

// Name reads a string of the deployment's vocabulary.
func (r *Reader) Name() string {
	b := r.bytes()
	if r.dry || len(b) == 0 {
		return ""
	}
	if r.in == nil {
		return string(b)
	}
	return r.in.intern(b)
}

// Names reads a list of names; an empty list is nil.
func (r *Reader) Names() []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	var out []string
	switch {
	case r.dry:
		r.names += n
	case len(r.slab) >= n:
		out, r.slab = r.slab[:n:n], r.slab[n:]
	default:
		out = make([]string, n)
	}
	for i := 0; i < n; i++ {
		if s := r.Name(); out != nil {
			out[i] = s
		}
	}
	return out
}

// TraceID reads a trace id, which the messages of one adaptation share.
func (r *Reader) TraceID() string {
	b := r.bytes()
	if r.in == nil || len(b) == 0 {
		return string(b)
	}
	if string(b) != r.in.trace {
		r.in.trace = string(b)
	}
	return r.in.trace
}

// Step reads a step in AppendStep's layout. A decoded step is immutable
// and shared: with an Interner, every step of one shape read from a stream
// — the messages and records of a round, and the same step in every later
// adaptation and attempt — holds the same Ops, Participants and
// ResetPhases, and whoever wants to change one copies it first — the rule
// PackBatch's hoist already relies on.
func (r *Reader) Step() Step {
	walk := *r
	walk.dry = true
	ids := walk.step()
	var shape []byte
	if r.in != nil && !walk.bad {
		head := *r
		head.Int()
		head.Int()
		shape = head.b[:len(head.b)-len(walk.b)]
		if s, ok := r.in.steps[string(shape)]; ok {
			r.b = walk.b
			s.PathIndex, s.Attempt = ids.PathIndex, ids.Attempt
			return s
		}
	}
	if !walk.bad && walk.names > 0 {
		r.slab = make([]string, walk.names)
	}
	s := r.step()
	r.slab = nil
	if shape != nil && !r.bad && len(s.Ops)+len(s.Participants)+len(s.ResetPhases) > 0 &&
		len(r.in.steps) < stepCap && len(shape) <= stepMaxLen {
		if r.in.steps == nil {
			r.in.steps = make(map[string]Step)
		}
		r.in.steps[string(shape)] = s
	}
	return s
}

// step is the one reader of the Step layout; in a dry walk it only finds
// where the step ends and how many names it lists.
func (r *Reader) step() Step {
	var s Step
	s.PathIndex = r.Int()
	s.Attempt = r.Int()
	s.ActionID = r.Name()
	if n := r.Count(3); n > 0 {
		if !r.dry {
			s.Ops = make([]action.Op, n)
		}
		for i := 0; i < n; i++ {
			op := action.Op{Kind: action.OpKind(r.Int()), Old: r.Name(), New: r.Name()}
			if s.Ops != nil {
				s.Ops[i] = op
			}
		}
	}
	s.Participants = r.Names()
	if n := r.Count(1); n > 0 {
		if !r.dry {
			s.ResetPhases = make([][]string, n)
		}
		for i := 0; i < n; i++ {
			if phase := r.Names(); s.ResetPhases != nil {
				s.ResetPhases[i] = phase
			}
		}
	}
	s.FromVector = r.Name()
	s.ToVector = r.Name()
	return s
}

// bodyGrowth is the most a body buffer grows ahead of the bytes that have
// arrived.
const bodyGrowth = 32 << 10

// ReadBody reads an n-byte frame body from r into buf's memory and returns
// it. A length header is a claim: the buffer grows as the bytes behind it
// arrive, by at most bodyGrowth or its own length at a time, so a peer
// that announces 16 MiB and sends ten bytes has cost a few kilobytes.
func ReadBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		chunk := n - len(buf)
		if n > cap(buf) {
			chunk = min(chunk, max(bodyGrowth, len(buf)))
		}
		buf = slices.Grow(buf, chunk)
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+chunk])
		buf = buf[:len(buf)+got]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
	}
	return buf, nil
}
