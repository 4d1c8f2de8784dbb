package metasocket

import (
	"encoding/binary"
	"fmt"
)

// FEC filters implement XOR-parity forward error correction — one of the
// paper's example MetaSocket filter kinds. After every group of K data
// packets the encoder emits one parity packet from which the decoder can
// reconstruct any single lost packet of the group, bit-exact including
// its headers and encoding tags.
//
// Parity is computed over each member's *wire form* prefixed with its
// length and zero-padded to the group maximum:
//
//	frame(p) = [4-byte len(marshal)] [marshal(p)] [zero padding]
//	parity   = frame(p₁) ⊕ frame(p₂) ⊕ ... ⊕ frame(p_K)
//
// XOR's self-inverse property lets the receiver recover the single
// missing member without knowing its position: parity ⊕ (frames of the
// K-1 received members) = frame(missing). The scheme requires the FIFO
// link netsim provides (parity follows its group, members stay ordered).
//
// Chain placement: the encoder goes LAST on the send side (parity covers
// the fully transformed wire packets) and the decoder FIRST on the
// receive side (it must see the same wire forms); FECDecoderFilter
// reports PreferFront for chain builders that honor placement hints.
type FECEncoderFilter struct {
	name string
	k    int

	group [][]byte // marshaled members of the open group
}

// NewFECEncoder builds a parity encoder over groups of k data packets
// (k >= 2).
func NewFECEncoder(name string, k int) (*FECEncoderFilter, error) {
	if k < 2 {
		return nil, fmt.Errorf("metasocket: FEC group size must be >= 2, got %d", k)
	}
	return &FECEncoderFilter{name: name, k: k}, nil
}

// Name implements Filter.
func (f *FECEncoderFilter) Name() string { return f.name }

// fecStack is the stack every parity packet carries.
var fecStack = []string{"fec"}

// Process implements Filter. What the filter keeps of a member past the
// call is its own marshalled copy.
func (f *FECEncoderFilter) Process(dst []Packet, p Packet) ([]Packet, error) {
	f.group = append(f.group, p.Marshal())
	dst = append(dst, p)
	if len(f.group) < f.k {
		return dst, nil
	}
	parity := Packet{
		Frame:   p.Frame,
		Index:   0,
		Count:   uint16(f.k),
		Enc:     fecStack,
		Payload: xorFrames(f.group),
	}
	f.group = f.group[:0]
	return append(dst, parity), nil
}

// xorFrames XORs the length-prefixed, zero-padded wire forms.
func xorFrames(members [][]byte) []byte {
	maxLen := 0
	for _, m := range members {
		if len(m) > maxLen {
			maxLen = len(m)
		}
	}
	out := make([]byte, 4+maxLen)
	var lenbuf [4]byte
	for _, m := range members {
		binary.BigEndian.PutUint32(lenbuf[:], uint32(len(m)))
		for i := 0; i < 4; i++ {
			out[i] ^= lenbuf[i]
		}
		for i, b := range m {
			out[4+i] ^= b
		}
	}
	return out
}

// FECDecoderFilter consumes "fec" parity packets and reconstructs a
// single missing data packet per group. Data packets pass through
// unchanged (and are remembered for the group's parity); recovered
// packets are emitted bit-exact, indistinguishable from ones that
// arrived.
type FECDecoderFilter struct {
	name string
	k    int

	group [][]byte

	// Recovered counts packets reconstructed from parity.
	Recovered int
	// Unrecoverable counts parity packets that could not help (more than
	// one member missing).
	Unrecoverable int
}

// NewFECDecoder builds the matching decoder for group size k.
func NewFECDecoder(name string, k int) (*FECDecoderFilter, error) {
	if k < 2 {
		return nil, fmt.Errorf("metasocket: FEC group size must be >= 2, got %d", k)
	}
	return &FECDecoderFilter{name: name, k: k}, nil
}

// Name implements Filter.
func (f *FECDecoderFilter) Name() string { return f.name }

// PreferFront reports that this filter belongs at the head of a receive
// chain: it must observe the same wire forms the encoder XORed.
func (f *FECDecoderFilter) PreferFront() bool { return true }

// Process implements Filter. What the filter keeps of a member past the
// call is its own marshalled copy, and a recovered packet is unmarshalled
// into storage of its own.
func (f *FECDecoderFilter) Process(dst []Packet, p Packet) ([]Packet, error) {
	if p.TopEnc() != "fec" {
		f.group = append(f.group, p.Marshal())
		if len(f.group) > f.k {
			// The group's parity must have been lost; forget the oldest.
			f.group = f.group[1:]
		}
		return append(dst, p), nil
	}

	defer func() { f.group = f.group[:0] }()
	missing := int(p.Count) - len(f.group)
	if missing <= 0 {
		return dst, nil // complete group; parity not needed
	}
	if missing > 1 {
		f.Unrecoverable++
		return dst, nil
	}

	// Recover: parity ⊕ frames(received) = frame(missing).
	buf := make([]byte, len(p.Payload))
	copy(buf, p.Payload)
	for _, m := range f.group {
		var lenbuf [4]byte
		binary.BigEndian.PutUint32(lenbuf[:], uint32(len(m)))
		for i := 0; i < 4 && i < len(buf); i++ {
			buf[i] ^= lenbuf[i]
		}
		for i, b := range m {
			if 4+i < len(buf) {
				buf[4+i] ^= b
			}
		}
	}
	if len(buf) < 4 {
		f.Unrecoverable++
		return dst, nil
	}
	n := int(binary.BigEndian.Uint32(buf[:4]))
	if n <= 0 || n > len(buf)-4 {
		f.Unrecoverable++
		return dst, nil
	}
	rec, err := Unmarshal(buf[4 : 4+n])
	if err != nil {
		f.Unrecoverable++
		return dst, nil
	}
	f.Recovered++
	return append(dst, rec), nil
}
