package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/action"
)

// A record travels — in the journal file and, frame for frame, inside the
// replication stream — as
//
//	[4-byte big-endian body length][4-byte CRC32-IEEE of body][body]
//
// and the body is the record's fields in declaration order behind one
// version byte: unsigned integers as uvarints, signed ones as zigzag
// varints, a string as its uvarint length and bytes, a slice as its
// uvarint count and elements. An empty slice and a nil one encode alike
// and decode to nil.

// recordVersion is the body's leading byte. Version 0 never existed; the
// JSON bodies this layout replaced begin with '{'.
const recordVersion = 1

// frameHeader is the length + checksum prefix of every frame.
const frameHeader = 8

// maxFrameBody bounds a frame body, so a corrupt length cannot demand an
// absurd allocation.
const maxFrameBody = 1 << 24

// ErrUnknownVersion reports a frame that checksums clean but does not
// begin with a record version this build reads — in practice a log written
// in the JSON layout this one replaced. Unlike a torn tail it is never
// truncated away: the bytes were written whole, by something else.
var ErrUnknownVersion = errors.New("journal: unknown record version")

// ErrCorruptRecord reports a frame that checksums clean and carries a
// known version, yet does not decode. A torn write cannot produce one, so
// it is an error and not the end of the log.
var ErrCorruptRecord = errors.New("journal: corrupt record")

// errTorn marks every way a byte stream can stop being a log: clean end,
// short header or body, impossible length, checksum mismatch. Readers treat
// all of them as "the valid log ends here".
var errTorn = errors.New("journal: torn frame")

// AppendFrame appends rec's frame to dst and returns the extended slice.
func AppendFrame(dst []byte, rec Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = appendBody(dst, rec)
	body := dst[start+frameHeader:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(body))
	return dst
}

func appendBody(b []byte, r Record) []byte {
	b = append(b, recordVersion)
	b = binary.AppendUvarint(b, r.Seq)
	b = binary.AppendUvarint(b, r.Epoch)
	b = appendString(b, string(r.Kind))
	b = binary.AppendVarint(b, int64(r.Step.PathIndex))
	b = binary.AppendVarint(b, int64(r.Step.Attempt))
	b = appendString(b, r.Step.ActionID)
	b = binary.AppendUvarint(b, uint64(len(r.Step.Ops)))
	for _, op := range r.Step.Ops {
		b = binary.AppendVarint(b, int64(op.Kind))
		b = appendString(b, op.Old)
		b = appendString(b, op.New)
	}
	b = appendStrings(b, r.Step.Participants)
	b = binary.AppendUvarint(b, uint64(len(r.Step.ResetPhases)))
	for _, phase := range r.Step.ResetPhases {
		b = appendStrings(b, phase)
	}
	b = appendString(b, r.Step.FromVector)
	b = appendString(b, r.Step.ToVector)
	b = appendString(b, r.Wave)
	b = appendString(b, r.Process)
	b = appendStrings(b, r.Agents)
	b = appendString(b, r.Source)
	b = appendString(b, r.Target)
	b = appendString(b, r.Outcome)
	return appendString(b, r.Detail)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// DecodeFrame decodes the frame at the head of buf and returns the record
// and the number of bytes the frame occupies. A buffer that does not begin
// with a complete, checksummed frame is an error (the valid log ends
// here), as is a whole frame that is not a record of this version
// (ErrUnknownVersion, ErrCorruptRecord).
func DecodeFrame(buf []byte) (Record, int, error) {
	if len(buf) < frameHeader {
		return Record{}, 0, errTorn
	}
	n, err := bodyLength(buf)
	if err != nil {
		return Record{}, 0, err
	}
	if n > len(buf)-frameHeader {
		return Record{}, 0, errTorn
	}
	rec, err := decodeChecked(buf[frameHeader:frameHeader+n], binary.BigEndian.Uint32(buf[4:]))
	return rec, frameHeader + n, err
}

// bodyLength reads a frame header's length field.
func bodyLength(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || n > maxFrameBody {
		return 0, errTorn
	}
	return int(n), nil
}

func decodeChecked(body []byte, sum uint32) (Record, error) {
	if crc32.ChecksumIEEE(body) != sum {
		return Record{}, errTorn
	}
	return decodeBody(body)
}

// Decoder reads framed records from a stream through one buffered reader
// and one reused body buffer, so scanning a log is one pass with a read
// system call per buffer, not two per record.
type Decoder struct {
	r    *bufio.Reader
	hdr  [frameHeader]byte
	body []byte
	good int64
}

// NewDecoder returns a decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReaderSize(r, 64<<10)}
}

// Next returns the next record. io.EOF means the valid log ends here —
// cleanly, or at a torn or corrupt-length frame or a checksum mismatch;
// Offset tells where. Any other error is a frame that was written whole
// but cannot be read (ErrUnknownVersion, ErrCorruptRecord) or a failing
// reader.
func (d *Decoder) Next() (Record, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		return Record{}, endOfLog(err)
	}
	n, err := bodyLength(d.hdr[:])
	if err != nil {
		return Record{}, io.EOF
	}
	if cap(d.body) < n {
		d.body = make([]byte, n)
	}
	d.body = d.body[:n]
	if _, err := io.ReadFull(d.r, d.body); err != nil {
		return Record{}, endOfLog(err)
	}
	rec, err := decodeChecked(d.body, binary.BigEndian.Uint32(d.hdr[4:]))
	if err != nil {
		return Record{}, endOfLog(err)
	}
	d.good += int64(frameHeader + n)
	return rec, nil
}

// endOfLog maps the ways a stream stops being a log onto io.EOF.
func endOfLog(err error) error {
	if err == io.ErrUnexpectedEOF || err == errTorn {
		return io.EOF
	}
	return err
}

// Offset is the number of bytes of valid frames read so far.
func (d *Decoder) Offset() int64 { return d.good }

// DecodeStream decodes every complete, checksummed record from the head
// of r and returns them with the byte offset where the valid log ends.
// Arbitrary garbage after (or instead of) the valid prefix simply ends the
// decode — the WAL discipline that a record is in the log iff its frame
// reads back complete and its checksum verifies. The error is non-nil only
// when a frame that did verify cannot be read (ErrUnknownVersion,
// ErrCorruptRecord) or r itself fails; the records before it are returned.
func DecodeStream(r io.Reader) (recs []Record, good int64, err error) {
	d := NewDecoder(r)
	for {
		rec, err := d.Next()
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return recs, d.Offset(), err
		}
		recs = append(recs, rec)
	}
}

// bodyReader consumes a record body. The first malformed field sets bad
// and every later read returns zero values, so decodeBody checks once.
type bodyReader struct {
	b   []byte
	bad bool
}

func (r *bodyReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad = true
		r.b = nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *bodyReader) int() int {
	v, n := binary.Varint(r.b)
	if n <= 0 || int64(int(v)) != v {
		r.bad = true
		r.b = nil
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

// count reads an element count. Every element occupies at least one byte,
// so a count above the bytes left is malformed — which is also what keeps a
// hostile count from sizing an allocation.
func (r *bodyReader) count() int {
	v := r.uvarint()
	if v > uint64(len(r.b)) {
		r.bad = true
		r.b = nil
		return 0
	}
	return int(v)
}

func (r *bodyReader) string() string {
	n := r.count()
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *bodyReader) strings() []string {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.string()
	}
	return out
}

func decodeBody(body []byte) (Record, error) {
	if body[0] != recordVersion {
		return Record{}, fmt.Errorf("%w %#x (a log in the older JSON layout?)", ErrUnknownVersion, body[0])
	}
	r := bodyReader{b: body[1:]}
	var rec Record
	rec.Seq = r.uvarint()
	rec.Epoch = r.uvarint()
	rec.Kind = Kind(r.string())
	rec.Step.PathIndex = r.int()
	rec.Step.Attempt = r.int()
	rec.Step.ActionID = r.string()
	if n := r.count(); n > 0 {
		rec.Step.Ops = make([]action.Op, n)
		for i := range rec.Step.Ops {
			rec.Step.Ops[i] = action.Op{Kind: action.OpKind(r.int()), Old: r.string(), New: r.string()}
		}
	}
	rec.Step.Participants = r.strings()
	if n := r.count(); n > 0 {
		rec.Step.ResetPhases = make([][]string, n)
		for i := range rec.Step.ResetPhases {
			rec.Step.ResetPhases[i] = r.strings()
		}
	}
	rec.Step.FromVector = r.string()
	rec.Step.ToVector = r.string()
	rec.Wave = r.string()
	rec.Process = r.string()
	rec.Agents = r.strings()
	rec.Source = r.string()
	rec.Target = r.string()
	rec.Outcome = r.string()
	rec.Detail = r.string()
	if r.bad || len(r.b) != 0 {
		return Record{}, ErrCorruptRecord
	}
	return rec, nil
}
