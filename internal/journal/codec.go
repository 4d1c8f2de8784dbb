package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/protocol"
)

// A record travels — in the journal file and, frame for frame, inside the
// replication stream — as
//
//	[4-byte big-endian body length][4-byte CRC32-IEEE of body][body]
//
// and the body is the record's fields in declaration order behind one
// version byte, in the primitives the message frames use too
// (protocol/wire.go): unsigned integers as uvarints, signed ones as zigzag
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
	b = protocol.AppendString(b, string(r.Kind))
	b = protocol.AppendStep(b, &r.Step)
	b = protocol.AppendString(b, r.Wave)
	b = protocol.AppendString(b, r.Process)
	b = protocol.AppendStrings(b, r.Agents)
	b = protocol.AppendString(b, r.Source)
	b = protocol.AppendString(b, r.Target)
	b = protocol.AppendString(b, r.Outcome)
	return protocol.AppendString(b, r.Detail)
}

// DecodeFrame decodes the frame at the head of buf and returns the record
// and the number of bytes the frame occupies. A buffer that does not begin
// with a complete, checksummed frame is an error (the valid log ends
// here), as is a whole frame that is not a record of this version
// (ErrUnknownVersion, ErrCorruptRecord).
func DecodeFrame(buf []byte) (Record, int, error) { return DecodeFrameWith(nil, buf) }

// DecodeFrameWith is DecodeFrame for a reader of many frames of one log: the
// record's names and step are drawn from in, and shared with the records
// decoded before it (protocol.Reader.Step states the rule).
func DecodeFrameWith(in *protocol.Interner, buf []byte) (Record, int, error) {
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
	rec, err := decodeChecked(buf[frameHeader:frameHeader+n], binary.BigEndian.Uint32(buf[4:]), in)
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

func decodeChecked(body []byte, sum uint32, in *protocol.Interner) (Record, error) {
	if crc32.ChecksumIEEE(body) != sum {
		return Record{}, errTorn
	}
	return decodeBody(body, in)
}

// Decoder reads framed records from a stream through one buffered reader,
// one reused body buffer and one Interner, so scanning a log is one pass
// with a read system call per buffer, not two per record, and the records
// of one step share it.
type Decoder struct {
	r    *bufio.Reader
	hdr  [frameHeader]byte
	body []byte
	in   protocol.Interner
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
	if d.body, err = protocol.ReadBody(d.r, d.body, n); err != nil {
		return Record{}, endOfLog(err)
	}
	rec, err := decodeChecked(d.body, binary.BigEndian.Uint32(d.hdr[4:]), &d.in)
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

// decodeBody decodes a checksummed body, drawing on in when it is non-nil.
func decodeBody(body []byte, in *protocol.Interner) (Record, error) {
	if body[0] != recordVersion {
		return Record{}, fmt.Errorf("%w %#x (a log in the older JSON layout?)", ErrUnknownVersion, body[0])
	}
	r := protocol.NewReader(body[1:], in)
	rec := Record{
		Seq: r.Uvarint(), Epoch: r.Uvarint(), Kind: Kind(r.Name()), Step: r.Step(),
		Wave: r.Name(), Process: r.Name(), Agents: r.Names(),
		Source: r.Name(), Target: r.Name(), Outcome: r.Name(), Detail: r.String(),
	}
	if r.Err() != nil {
		return Record{}, ErrCorruptRecord
	}
	return rec, nil
}
