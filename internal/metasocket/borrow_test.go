package metasocket

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/cipherkit"
)

// The tests here pin the data plane's ownership rule: a payload is
// borrowed for the duration of the call it is passed to; whoever keeps
// bytes past the call copies them.

// TestSharedDatagramDecodedConcurrently: a multicast link hands the same
// bytes to every subscriber. Two receive sockets parse and decode one
// shared datagram at the same time — under -race, a write through the
// alias would be a report — and the datagram is unchanged afterwards.
func TestSharedDatagramDecodedConcurrently(t *testing.T) {
	c := cipherkit.MustDefault64()
	plain := bytes.Repeat([]byte("frame"), 50)
	datagram := Packet{Seq: 7, Frame: 3, Count: 1, Enc: []string{"des64"}, Payload: c.Encrypt(plain)}.Marshal()
	before := bytes.Clone(datagram)

	const rounds = 200
	var wg sync.WaitGroup
	for _, name := range []string{"D1", "D4"} {
		sock, err := NewRecvSocket(func(p Packet) error {
			if !bytes.Equal(p.Payload, plain) || len(p.Enc) != 0 {
				return fmt.Errorf("decoded %d bytes under %v", len(p.Payload), p.Enc)
			}
			return nil
		}, NewDecoder(name, c))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				sock.deliver(datagram)
			}
			if sock.DecodeErrors() != 0 || sock.Processed() != rounds {
				t.Errorf("%d decode errors, %d of %d processed", sock.DecodeErrors(), sock.Processed(), rounds)
			}
		}()
	}
	wg.Wait()
	if !bytes.Equal(datagram, before) {
		t.Error("a receiver wrote through its alias of the shared datagram")
	}
}

// TestSinkAndObserversSeeBorrowedBytes: the sink and the observers are
// handed the decoder's buffer. One that copies keeps what it saw; one that
// (wrongly) retains the slice finds the next packet's bytes in it, which
// is what SinkFunc's comment warns of.
func TestSinkAndObserversSeeBorrowedBytes(t *testing.T) {
	c := cipherkit.MustDefault64()
	var copied, retained, observed [][]byte
	sock, err := NewRecvSocket(func(p Packet) error {
		copied = append(copied, bytes.Clone(p.Payload))
		retained = append(retained, p.Payload)
		return nil
	}, NewDecoder("D1", c))
	if err != nil {
		t.Fatal(err)
	}
	sock.SetDeliveryObserver(func(p Packet) { observed = append(observed, bytes.Clone(p.Payload)) })

	want := [][]byte{[]byte("first packet....."), []byte("second packet....")}
	for i, plain := range want {
		sock.deliver(Packet{Seq: uint64(i), Count: 1, Enc: []string{"des64"}, Payload: c.Encrypt(plain)}.Marshal())
	}
	for i := range want {
		if !bytes.Equal(copied[i], want[i]) || !bytes.Equal(observed[i], want[i]) {
			t.Errorf("packet %d: a copying sink or observer lost its bytes", i)
		}
	}
	if !bytes.Equal(retained[0], want[1]) {
		t.Errorf("the retained slice of packet 0 reads %q: expected the decoder to have reused its buffer for packet 1", retained[0])
	}
}

// TestFanOutBeforeBufferOwningFilter: a filter that owns its output buffer
// may run twice for one input packet when an earlier stage fans out (FEC
// emits the member and the parity). The chain keeps the first output past
// the second call, so the chain copies it: both datagrams decode.
func TestFanOutBeforeBufferOwningFilter(t *testing.T) {
	c := cipherkit.MustDefault64()
	fec, err := NewFECEncoder("F1", 2)
	if err != nil {
		t.Fatal(err)
	}
	var wire [][]byte
	sock, err := NewSendSocket(func(d []byte) error {
		wire = append(wire, bytes.Clone(d))
		return nil
	}, fec, NewEncoder("E1", c))
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	plain := [][]byte{[]byte("member one"), []byte("member two")}
	for i, body := range plain {
		if err := sock.Send(Packet{Frame: 1, Index: uint16(i), Count: 2, Payload: body}); err != nil {
			t.Fatal(err)
		}
	}
	if len(wire) != 3 {
		t.Fatalf("%d datagrams on the wire, want 2 members and a parity", len(wire))
	}
	dec := NewDecoder("D1", c)
	for i, d := range wire {
		p, err := Unmarshal(d)
		if err != nil {
			t.Fatal(err)
		}
		out, err := dec.Process(nil, p)
		if err != nil {
			t.Fatalf("datagram %d does not decode: %v", i, err)
		}
		if i < 2 && !bytes.Equal(out[0].Payload, plain[i]) {
			t.Errorf("member %d decodes to %q", i, out[0].Payload)
		}
	}
}

// TestEncStacksAreShared: a pop shares the popped packet's stack and a
// push never writes into it.
func TestEncStacksAreShared(t *testing.T) {
	stack := []string{"flate", "des64"}
	p := Packet{Enc: stack}
	popped := p.PopEnc(nil)
	pushed := popped.PushEnc("fec", nil)
	if got := strings.Join(stack, ","); got != "flate,des64" {
		t.Errorf("a push after a pop wrote through the shared stack: %s", got)
	}
	if popped.TopEnc() != "flate" || pushed.TopEnc() != "fec" || len(pushed.Enc) != 2 {
		t.Errorf("popped %v, pushed %v", popped.Enc, pushed.Enc)
	}
}

// TestStackTableIsBounded: a sender of random tag bytes cannot grow the
// receive socket's intern table past its cap, and every datagram it sends
// still decodes, interned or not.
func TestStackTableIsBounded(t *testing.T) {
	var delivered int
	var lastTag string
	sock, err := NewRecvSocket(func(p Packet) error {
		delivered++
		lastTag = p.TopEnc()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const datagrams = 10000
	for i := 0; i < datagrams; i++ {
		tag := fmt.Sprintf("garbled-%d", i)
		sock.deliver(Packet{Seq: uint64(i), Count: 1, Enc: []string{"flate", tag}, Payload: []byte("x")}.Marshal())
		if lastTag != tag {
			t.Fatalf("datagram %d decoded with top tag %q, want %q", i, lastTag, tag)
		}
	}
	if delivered != datagrams || sock.DecodeErrors() != 0 {
		t.Errorf("%d of %d delivered, %d decode errors", delivered, datagrams, sock.DecodeErrors())
	}
	if len(sock.stacks) != maxInternedStacks {
		t.Errorf("intern table holds %d stacks, want the cap of %d", len(sock.stacks), maxInternedStacks)
	}
}

// TestUnencodableStackRefused: the wire form has one byte for a tag's
// length and one for the stack's depth. A packet past either is refused by
// Send — it used to be truncated into a datagram that did not parse.
func TestUnencodableStackRefused(t *testing.T) {
	var sent int
	sock, err := NewSendSocket(func([]byte) error { sent++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()

	deep := make([]string, maxEncDepth+1)
	for i := range deep {
		deep[i] = "t"
	}
	for _, c := range []struct {
		enc  []string
		want error
	}{
		{[]string{strings.Repeat("x", maxTagLen+1)}, errTagTooLong},
		{deep, errEncTooDeep},
	} {
		if err := sock.Send(Packet{Count: 1, Enc: c.enc, Payload: []byte("x")}); !errors.Is(err, c.want) {
			t.Errorf("Send with a %d-tag stack = %v, want %v", len(c.enc), err, c.want)
		}
	}
	if sent != 0 {
		t.Errorf("%d unparseable datagrams were transmitted", sent)
	}

	// At the limits the packet goes out and parses back.
	var datagram []byte
	edge, err := NewSendSocket(func(d []byte) error { datagram = bytes.Clone(d); return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	widest := deep[:maxEncDepth:maxEncDepth]
	widest[0] = strings.Repeat("x", maxTagLen)
	if err := edge.Send(Packet{Count: 1, Enc: widest, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	p, err := Unmarshal(datagram)
	if err != nil || len(p.Enc) != maxEncDepth || p.Enc[0] != widest[0] {
		t.Errorf("a stack at the wire form's limits came back as %d tags, err %v", len(p.Enc), err)
	}
}
