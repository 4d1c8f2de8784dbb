// Package video implements the application substrate of the case study
// (Fig. 3): a video server multicasting an encoded stream to clients
// through MetaSockets. The paper used a live web camera and video player;
// we substitute a deterministic synthetic frame source and an
// integrity-verifying player sink, which is strictly stronger for
// evaluation: every corrupted, lost, or mis-decoded frame is counted
// rather than eyeballed (see DESIGN.md).
package video

import (
	"encoding/binary"
	"fmt"
)

// Frame is one synthetic video frame: an identifier plus a payload whose
// first 8 bytes are an FNV-64a checksum of the rest.
type Frame struct {
	ID      uint32
	Payload []byte
}

// GenerateFrame produces the deterministic frame with the given id and
// body size (bytes, excluding the checksum header). The body is a fast
// xorshift stream seeded by the id, so any corruption is detectable and
// runs are reproducible.
func GenerateFrame(id uint32, bodySize int) Frame {
	if bodySize < 1 {
		bodySize = 1
	}
	body := make([]byte, bodySize)
	x := uint64(id)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for i := range body {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		body[i] = byte(x)
	}
	payload := make([]byte, 8+bodySize)
	binary.BigEndian.PutUint64(payload[:8], fnv64a(fnvOffset64, body))
	copy(payload[8:], body)
	return Frame{ID: id, Payload: payload}
}

// fnv64a continues an FNV-1a hash (hash/fnv's New64a without the
// interface) over b, so a body that arrives in pieces hashes without
// being joined; start from fnvOffset64.
func fnv64a(h uint64, b []byte) uint64 {
	for _, x := range b {
		h ^= uint64(x)
		h *= 1099511628211
	}
	return h
}

const fnvOffset64 = 14695981039346656037

// Verify checks the frame's embedded checksum.
func (f Frame) Verify() error {
	if len(f.Payload) < 8 {
		return fmt.Errorf("video: frame %d payload too short", f.ID)
	}
	if fnv64a(fnvOffset64, f.Payload[8:]) != binary.BigEndian.Uint64(f.Payload[:8]) {
		return fmt.Errorf("video: frame %d checksum mismatch", f.ID)
	}
	return nil
}
