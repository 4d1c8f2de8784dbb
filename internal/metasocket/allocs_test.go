//go:build !race

package metasocket

import (
	"testing"

	"repro/internal/cipherkit"
)

// The allocation gates run without the race detector, which adds
// allocations of its own.

// TestSendAllocs: a packet through a real encoder, the marshal and the
// transmit costs the send socket no allocation.
func TestSendAllocs(t *testing.T) {
	sock, err := NewSendSocket(func([]byte) error { return nil },
		NewEncoder("E1", cipherkit.MustDefault64()))
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	p := Packet{Frame: 1, Count: 1, Payload: make([]byte, 256)}
	n := testing.AllocsPerRun(200, func() {
		if err := sock.Send(p); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("Send through an EncoderFilter: %v allocs per packet, want 0", n)
	}
}

// TestDeliverAllocs: a datagram through the parse (aliased payload,
// interned stack), a real decoder and the sink costs the receive socket no
// allocation.
func TestDeliverAllocs(t *testing.T) {
	c := cipherkit.MustDefault64()
	sock, err := NewRecvSocket(func(Packet) error { return nil }, NewDecoder("D1", c))
	if err != nil {
		t.Fatal(err)
	}
	datagram := Packet{Seq: 1, Frame: 1, Count: 1, Enc: []string{"des64"},
		Payload: c.Encrypt(make([]byte, 256))}.Marshal()
	n := testing.AllocsPerRun(200, func() { sock.deliver(datagram) })
	if n != 0 {
		t.Errorf("deliver through a DecoderFilter: %v allocs per datagram, want 0", n)
	}
	if sock.DecodeErrors() != 0 {
		t.Errorf("%d decode errors", sock.DecodeErrors())
	}
}
