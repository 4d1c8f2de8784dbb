// Package metasocket reimplements the paper's MetaSocket abstraction: a
// socket whose internal structure — a chain of filters manipulating the
// passing data stream — can be recomposed at run time (insertion, removal
// and replacement of filters), with the blocking and resetting machinery
// the safe adaptation protocol relies on (Sec. 2 and Sec. 5.2: the
// "resetting" flag checked at packet boundaries, blocking in the local
// safe state, and resumption).
package metasocket

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
)

// Packet is one unit of the application data stream. Filters transform
// packets; the encoding-tag stack records which transformations are
// currently applied to the payload (innermost transformation last), which
// is what the paper's bypass decoders key on.
//
// A Packet is passed by value but its Payload and Enc are references,
// and the whole data plane treats them by one rule: a payload is borrowed
// for the duration of the call it is passed to; whoever keeps bytes past
// the call copies them. Enc stacks are immutable and shared — many
// packets carry the same backing array — so they are only ever replaced
// (PushEnc, PopEnc), never written through.
type Packet struct {
	// Seq is the send-socket sequence number, stamped at transmission;
	// it doubles as the packet's critical-communication identifier.
	Seq uint64
	// Frame is the application frame this packet belongs to.
	Frame uint32
	// Index and Count fragment a frame into Count packets.
	Index uint16
	Count uint16
	// Enc is the stack of encoding tags applied to Payload, outermost
	// last (e.g. ["flate","des64"] means compressed then encrypted).
	Enc []string
	// Payload is the (possibly transformed) packet body.
	Payload []byte
}

// The wire form spends one byte on the stack depth and one on each tag's
// length.
const (
	maxEncDepth = 255
	maxTagLen   = 255
)

var (
	errTagTooLong  = errors.New("metasocket: encoding tag longer than 255 bytes")
	errEncTooDeep  = errors.New("metasocket: encoding stack deeper than 255 tags")
	errShort       = errors.New("metasocket: packet shorter than its 17-byte header")
	errTruncated   = errors.New("metasocket: truncated encoding tags")
	errNoLength    = errors.New("metasocket: truncated payload length")
	errPayloadSize = errors.New("metasocket: payload length does not match the bytes that follow it")
)

// PushEnc returns p with the tag pushed and the new payload. The stack it
// returns is a fresh one: Enc stacks are shared, so a push never appends
// in place.
func (p Packet) PushEnc(tag string, payload []byte) Packet {
	//safeadaptvet:allow hotpath -- a stacked encoding builds its new stack per packet; a plain input, the stream's case, goes through pushShared and takes the filter's prebuilt one-tag stack
	enc := make([]string, len(p.Enc)+1)
	copy(enc, p.Enc)
	enc[len(p.Enc)] = tag
	p.Enc = enc
	p.Payload = payload
	return p
}

// pushShared is PushEnc for a filter that keeps its one-tag stack
// prebuilt: a plain packet, the stream's case, leaves with that stack
// itself, shared by every packet; only a stacked encoding builds one.
func (p Packet) pushShared(stack []string, payload []byte) Packet {
	if len(p.Enc) > 0 {
		return p.PushEnc(stack[0], payload)
	}
	p.Enc, p.Payload = stack, payload
	return p
}

// TopEnc returns the outermost encoding tag, or "" when the payload is
// plain.
func (p Packet) TopEnc() string {
	if len(p.Enc) == 0 {
		return ""
	}
	return p.Enc[len(p.Enc)-1]
}

// PopEnc returns p with the outermost tag removed and the new payload.
// The result shares the rest of the stack with p.
func (p Packet) PopEnc(payload []byte) Packet {
	p.Enc = p.Enc[: len(p.Enc)-1 : len(p.Enc)-1]
	p.Payload = payload
	return p
}

// encodable reports whether the packet's tag stack fits the wire form;
// MarshalInto would otherwise truncate it into a datagram that no longer
// parses.
func (p Packet) encodable() error {
	if len(p.Enc) > maxEncDepth {
		return errEncTooDeep
	}
	for _, t := range p.Enc {
		if len(t) > maxTagLen {
			return errTagTooLong
		}
	}
	return nil
}

// Marshal encodes the packet for network transmission into a fresh
// buffer. The per-packet send path uses MarshalInto with a pooled buffer
// instead; Marshal remains for callers that keep the datagram.
func (p Packet) Marshal() []byte { return p.MarshalInto(nil) }

// MarshalInto encodes the packet into dst's backing array when it is
// large enough, growing it otherwise, and returns the encoded slice. The
// send socket passes its per-socket scratch buffer so the steady-state
// marshal is allocation-free; the returned slice is only valid until the
// next MarshalInto on the same buffer. The packet must be encodable (the
// send socket checks).
func (p Packet) MarshalInto(dst []byte) []byte {
	size := 8 + 4 + 2 + 2 + 1
	for _, t := range p.Enc {
		size += 1 + len(t)
	}
	size += 4 + len(p.Payload)
	dst = slices.Grow(dst[:0], size)[:size]

	binary.BigEndian.PutUint64(dst[0:8], p.Seq)
	binary.BigEndian.PutUint32(dst[8:12], p.Frame)
	binary.BigEndian.PutUint16(dst[12:14], p.Index)
	binary.BigEndian.PutUint16(dst[14:16], p.Count)
	dst[16] = byte(len(p.Enc))
	off := 17
	for _, t := range p.Enc {
		dst[off] = byte(len(t))
		off++
		off += copy(dst[off:], t)
	}
	binary.BigEndian.PutUint32(dst[off:off+4], uint32(len(p.Payload)))
	off += 4
	copy(dst[off:], p.Payload)
	return dst
}

// Unmarshal decodes a packet from its wire form into storage of its own:
// the result shares nothing with data.
func Unmarshal(data []byte) (Packet, error) {
	p, err := parse(data, nil)
	p.Payload = bytes.Clone(p.Payload)
	return p, err
}

// maxInternedStacks caps a receive socket's tag-stack table. A stream
// carries a handful of distinct stacks (one per codec composition it has
// ever used); a sender of garbled or random tag bytes would otherwise
// grow the table forever. Past the cap a new stack is decoded per
// datagram and not remembered.
const maxInternedStacks = 64

// parse decodes a datagram without copying it: the packet's Payload
// aliases data, and its Enc is the stack interned in stacks under the raw
// header bytes that spell it, so the same few []string serve every
// datagram of a stream. A nil table interns nothing. The table is owned
// by a single socket goroutine — no locking.
func parse(data []byte, stacks map[string][]string) (Packet, error) {
	var p Packet
	if len(data) < 17 {
		return p, errShort
	}
	p.Seq = binary.BigEndian.Uint64(data[0:8])
	p.Frame = binary.BigEndian.Uint32(data[8:12])
	p.Index = binary.BigEndian.Uint16(data[12:14])
	p.Count = binary.BigEndian.Uint16(data[14:16])
	n := int(data[16])
	off := 17
	for i := 0; i < n; i++ {
		if off >= len(data) {
			return p, errTruncated
		}
		off += 1 + int(data[off])
		if off > len(data) {
			return p, errTruncated
		}
	}
	if n > 0 {
		raw := data[16:off]               // depth byte, then each tag behind its length
		enc, known := stacks[string(raw)] // the compiler looks a string(b) key up in place

		if !known {
			//safeadaptvet:allow hotpath -- first sight of a tag stack: one string holding its bytes and one []string of tags cut from it, shared by every later datagram that spells the same stack
			key, tags := string(raw), make([]string, n)
			for i, at := 0, 1; i < n; i++ {
				end := at + 1 + int(key[at])
				tags[i] = key[at+1 : end]
				at = end
			}
			if stacks != nil && len(stacks) < maxInternedStacks {
				stacks[key] = tags
			}
			enc = tags
		}
		p.Enc = enc
	}
	if off+4 > len(data) {
		return p, errNoLength
	}
	pl := int(binary.BigEndian.Uint32(data[off : off+4]))
	off += 4
	if off+pl != len(data) {
		return p, errPayloadSize
	}
	p.Payload = data[off:len(data):len(data)]
	return p, nil
}
