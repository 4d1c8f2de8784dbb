package metasocket

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cipherkit"
)

func TestPacketMarshalRoundTrip(t *testing.T) {
	p := Packet{
		Seq:     12345678901,
		Frame:   42,
		Index:   3,
		Count:   9,
		Enc:     []string{"flate", "des64"},
		Payload: []byte("payload bytes"),
	}
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != p.Seq || got.Frame != p.Frame || got.Index != p.Index || got.Count != p.Count {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Enc) != 2 || got.Enc[0] != "flate" || got.Enc[1] != "des64" {
		t.Errorf("enc mismatch: %v", got.Enc)
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Error("payload mismatch")
	}
}

func TestPacketUnmarshalErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 5),
		make([]byte, 16),
		Packet{Enc: []string{"des64"}}.Marshal()[:18], // truncated tag
	}
	for i, raw := range cases {
		if _, err := Unmarshal(raw); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	// Trailing garbage must be rejected.
	good := Packet{Payload: []byte("x")}.Marshal()
	if _, err := Unmarshal(append(good, 0xFF)); err == nil {
		t.Error("trailing bytes should fail")
	}
}

// TestPropertyPacketRoundTrip fuzzes the wire codec.
func TestPropertyPacketRoundTrip(t *testing.T) {
	f := func(seq uint64, frame uint32, index, count uint16, payload []byte, tagSeed uint8) bool {
		var enc []string
		for i := 0; i < int(tagSeed%4); i++ {
			enc = append(enc, "tag"+string(rune('a'+i)))
		}
		p := Packet{Seq: seq, Frame: frame, Index: index, Count: count, Enc: enc, Payload: payload}
		got, err := Unmarshal(p.Marshal())
		if err != nil {
			return false
		}
		if got.Seq != seq || got.Frame != frame || got.Index != index || got.Count != count {
			return false
		}
		if len(got.Enc) != len(enc) {
			return false
		}
		for i := range enc {
			if got.Enc[i] != enc[i] {
				return false
			}
		}
		return bytes.Equal(got.Payload, payload) || (len(payload) == 0 && len(got.Payload) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEncoderDecoderPair(t *testing.T) {
	c := cipherkit.MustDefault64()
	enc := NewEncoder("E1", c)
	dec := NewDecoder("D1", c)

	in := Packet{Frame: 1, Payload: []byte("plain video data")}
	encoded, err := enc.Process(nil, in)
	if err != nil || len(encoded) != 1 {
		t.Fatalf("encode: %v", err)
	}
	if encoded[0].TopEnc() != "des64" {
		t.Errorf("tag = %q", encoded[0].TopEnc())
	}
	if bytes.Equal(encoded[0].Payload, in.Payload) {
		t.Error("encoder did not transform payload")
	}
	decoded, err := dec.Process(nil, encoded[0])
	if err != nil || len(decoded) != 1 {
		t.Fatalf("decode: %v", err)
	}
	if len(decoded[0].Enc) != 0 || !bytes.Equal(decoded[0].Payload, in.Payload) {
		t.Error("decode round trip failed")
	}
}

func TestDecoderBypass(t *testing.T) {
	c64 := cipherkit.MustDefault64()
	c128 := cipherkit.MustDefault128()
	enc128 := NewEncoder("E2", c128)
	dec64 := NewDecoder("D1", c64)

	in := Packet{Payload: []byte("data")}
	encoded, err := enc128.Process(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	// D1 must bypass a des128 packet untouched (the paper's bypass
	// functionality).
	out, err := dec64.Process(nil, encoded[0])
	if err != nil || len(out) != 1 {
		t.Fatalf("bypass: %v", err)
	}
	if out[0].TopEnc() != "des128" || !bytes.Equal(out[0].Payload, encoded[0].Payload) {
		t.Error("bypass modified the packet")
	}
}

func TestCompatibleDecoderD2(t *testing.T) {
	c64 := cipherkit.MustDefault64()
	c128 := cipherkit.MustDefault128()
	d2 := NewDecoder("D2", c64, c128)
	in := Packet{Payload: []byte("both ways")}

	for _, enc := range []*EncoderFilter{NewEncoder("E1", c64), NewEncoder("E2", c128)} {
		encoded, err := enc.Process(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := d2.Process(nil, encoded[0])
		if err != nil || len(out) != 1 || !bytes.Equal(out[0].Payload, in.Payload) {
			t.Errorf("D2 failed to decode %s: %v", enc.Name(), err)
		}
	}
	if !d2.Accepts("des64") || !d2.Accepts("des128") || d2.Accepts("flate") {
		t.Error("Accepts misreports")
	}
}

func TestCompressRoundTripAndBypass(t *testing.T) {
	comp := NewCompress("C1")
	decomp := NewDecompress("X1")
	in := Packet{Payload: bytes.Repeat([]byte("video "), 100)}
	c, err := comp.Process(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(c[0].Payload) >= len(in.Payload) {
		t.Error("compression did not shrink repetitive payload")
	}
	out, err := decomp.Process(nil, c[0])
	if err != nil || !bytes.Equal(out[0].Payload, in.Payload) {
		t.Errorf("decompress: %v", err)
	}
	// Bypass of uncompressed packets.
	by, err := decomp.Process(nil, in)
	if err != nil || !bytes.Equal(by[0].Payload, in.Payload) {
		t.Error("decompress should bypass plain packets")
	}
}

func TestFECRecoversSingleLoss(t *testing.T) {
	encf, err := NewFECEncoder("F1", 3)
	if err != nil {
		t.Fatal(err)
	}
	decf, err := NewFECDecoder("G1", 3)
	if err != nil {
		t.Fatal(err)
	}

	originals := []Packet{
		{Seq: 1, Frame: 7, Index: 0, Count: 3, Enc: []string{"des64"}, Payload: []byte{10, 20}},
		{Seq: 2, Frame: 7, Index: 1, Count: 3, Enc: []string{"des64"}, Payload: []byte{11, 21, 31}},
		{Seq: 3, Frame: 7, Index: 2, Count: 3, Enc: []string{"des64"}, Payload: []byte{12}},
	}
	var wire []Packet
	for _, p := range originals {
		out, err := encf.Process(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		wire = append(wire, out...)
	}
	if len(wire) != 4 { // 3 data + 1 parity
		t.Fatalf("wire has %d packets", len(wire))
	}
	if wire[3].TopEnc() != "fec" {
		t.Fatalf("last packet tag = %q", wire[3].TopEnc())
	}

	// Drop the second data packet; the decoder must reconstruct it
	// bit-exactly, headers and encoding tags included.
	var out []Packet
	for i, p := range wire {
		if i == 1 {
			continue // lost
		}
		o, err := decf.Process(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, o...)
	}
	if len(out) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(out))
	}
	rec := out[2] // recovered member is emitted at parity time
	want := originals[1]
	if rec.Seq != want.Seq || rec.Frame != want.Frame || rec.Index != want.Index ||
		rec.Count != want.Count || rec.TopEnc() != "des64" || !bytes.Equal(rec.Payload, want.Payload) {
		t.Errorf("recovered packet = %+v, want %+v", rec, want)
	}
	if decf.Recovered != 1 {
		t.Errorf("Recovered = %d", decf.Recovered)
	}
	if !decf.PreferFront() {
		t.Error("FEC decoder must prefer the chain front")
	}
}

// TestFECDoubleLossUnrecoverable: two losses in a group cannot be
// repaired; the decoder must count and move on without corrupting.
func TestFECDoubleLossUnrecoverable(t *testing.T) {
	encf, _ := NewFECEncoder("F1", 3)
	decf, _ := NewFECDecoder("G1", 3)
	var wire []Packet
	for i := 0; i < 3; i++ {
		out, err := encf.Process(nil, Packet{Seq: uint64(i + 1), Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		wire = append(wire, out...)
	}
	var out []Packet
	for i, p := range wire {
		if i == 0 || i == 1 {
			continue // two losses
		}
		o, err := decf.Process(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, o...)
	}
	if len(out) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(out))
	}
	if decf.Recovered != 0 || decf.Unrecoverable != 1 {
		t.Errorf("Recovered=%d Unrecoverable=%d", decf.Recovered, decf.Unrecoverable)
	}
}

func TestFECNoLossDropsParity(t *testing.T) {
	encf, _ := NewFECEncoder("F1", 2)
	decf, _ := NewFECDecoder("G1", 2)
	var out []Packet
	for i := 0; i < 2; i++ {
		o, err := encf.Process(nil, Packet{Seq: uint64(i), Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, o...)
	}
	var delivered []Packet
	for _, p := range out {
		o, err := decf.Process(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		delivered = append(delivered, o...)
	}
	if len(delivered) != 2 {
		t.Errorf("delivered %d packets, want 2 (parity dropped)", len(delivered))
	}
	if decf.Recovered != 0 {
		t.Error("nothing should be recovered without loss")
	}
}

func TestFECValidation(t *testing.T) {
	if _, err := NewFECEncoder("f", 1); err == nil {
		t.Error("k=1 should fail")
	}
	if _, err := NewFECDecoder("g", 0); err == nil {
		t.Error("k=0 should fail")
	}
}

func TestSendSocketChainAndSeq(t *testing.T) {
	var sent [][]byte
	sock, err := NewSendSocket(func(d []byte) error {
		// The datagram is the socket's pooled buffer; retaining it
		// across packets requires a copy (see TransmitFunc).
		sent = append(sent, append([]byte(nil), d...))
		return nil
	}, NewEncoder("E1", cipherkit.MustDefault64()))
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()

	for i := 0; i < 3; i++ {
		if err := sock.Send(Packet{Frame: uint32(i), Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if sock.Sent() != 3 {
		t.Errorf("Sent = %d", sock.Sent())
	}
	for i, raw := range sent {
		p, err := Unmarshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		if p.Seq != uint64(i+1) {
			t.Errorf("packet %d seq = %d", i, p.Seq)
		}
		if p.TopEnc() != "des64" {
			t.Errorf("packet %d not encoded", i)
		}
	}
}

func TestRecompositionRequiresBlocked(t *testing.T) {
	sock, err := NewSendSocket(func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	f := NewPassthrough("P1")
	if err := sock.InsertFilter(f, -1); !errors.Is(err, ErrNotBlocked) {
		t.Errorf("insert unblocked = %v, want ErrNotBlocked", err)
	}
	if err := sock.RemoveFilter("P1"); !errors.Is(err, ErrNotBlocked) {
		t.Errorf("remove unblocked = %v", err)
	}
	if err := sock.ReplaceFilter("P1", f); !errors.Is(err, ErrNotBlocked) {
		t.Errorf("replace unblocked = %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := sock.RequestBlock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sock.InsertFilter(f, -1); err != nil {
		t.Errorf("insert while blocked: %v", err)
	}
	if got := sock.Filters(); len(got) != 1 || got[0] != "P1" {
		t.Errorf("Filters = %v", got)
	}
	sock.Unblock()
}

// TestBlockWaitsForInFlightPacket: a block requested while a packet is
// mid-chain lands after it, and one requested mid-batch lands after the
// whole batch (SendBatch is one critical section, so a frame sent as a
// batch is never split across a recomposition).
func TestBlockWaitsForInFlightPacket(t *testing.T) {
	three := make([]Packet, 3)
	for i := range three {
		three[i] = Packet{Index: uint16(i), Count: 3, Payload: []byte("x")}
	}
	for _, tc := range []struct {
		name string
		send func(*SendSocket) error
		want uint64 // packets transmitted when the block lands
	}{
		{"Send", func(s *SendSocket) error { return s.Send(Packet{Payload: []byte("x")}) }, 1},
		{"SendBatch", func(s *SendSocket) error { return s.SendBatch(three) }, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			release := make(chan struct{})
			slow := &slowFilter{release: release, started: make(chan struct{})}
			sock, err := NewSendSocket(func([]byte) error { return nil }, slow)
			if err != nil {
				t.Fatal(err)
			}
			defer sock.Close()

			sendDone := make(chan error, 1)
			go func() { sendDone <- tc.send(sock) }()
			<-slow.started

			// RequestBlock must not return while the first packet is mid-chain.
			blockDone := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				defer cancel()
				blockDone <- sock.RequestBlock(ctx)
			}()
			select {
			case err := <-blockDone:
				t.Fatalf("RequestBlock returned mid-packet: %v", err)
			case <-time.After(30 * time.Millisecond):
			}

			close(release)
			if err := <-blockDone; err != nil {
				t.Fatal(err)
			}
			if got := sock.Sent(); got != tc.want {
				t.Errorf("block landed after %d packets, want %d", got, tc.want)
			}
			if !sock.Blocked() {
				t.Error("socket should be blocked")
			}
			sock.Unblock()
			if err := <-sendDone; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// slowFilter signals when Process begins and then parks until released,
// letting tests observe a packet mid-chain. Both channels must be
// non-nil; started is closed on first use.
type slowFilter struct {
	startOnce sync.Once
	started   chan struct{}
	release   chan struct{}
}

func (s *slowFilter) Name() string { return "slow" }

func (s *slowFilter) Process(dst []Packet, p Packet) ([]Packet, error) {
	s.startOnce.Do(func() { close(s.started) })
	<-s.release
	return append(dst, p), nil
}

func TestBlockTimeout(t *testing.T) {
	release := make(chan struct{})
	slow := &slowFilter{release: release, started: make(chan struct{})}
	sock, err := NewSendSocket(func([]byte) error { return nil }, slow)
	if err != nil {
		t.Fatal(err)
	}
	defer close(release)
	defer sock.Close()

	go func() { _ = sock.Send(Packet{Payload: []byte("x")}) }()
	<-slow.started

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := sock.RequestBlock(ctx); err == nil {
		t.Error("RequestBlock should time out while a packet is stuck mid-chain")
	}
	if sock.Blocked() {
		t.Error("failed block must clear the resetting flag")
	}
}

func TestSendBlocksWhileSocketBlocked(t *testing.T) {
	sock, err := NewSendSocket(func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := sock.RequestBlock(ctx); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- sock.Send(Packet{Payload: []byte("x")}) }()
	select {
	case <-done:
		t.Fatal("Send returned while socket blocked")
	case <-time.After(30 * time.Millisecond):
	}
	sock.Unblock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestRecvSocketPipeline(t *testing.T) {
	c := cipherkit.MustDefault64()
	var got []Packet
	var mu sync.Mutex
	sock, err := NewRecvSocket(func(p Packet) error {
		p.Payload = bytes.Clone(p.Payload) // kept past the call, so copied (see SinkFunc)
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
		return nil
	}, NewDecoder("D1", c))
	if err != nil {
		t.Fatal(err)
	}

	ch := make(chan []byte, 4)
	if err := sock.Start(ch); err != nil {
		t.Fatal(err)
	}
	if err := sock.Start(ch); err == nil {
		t.Error("double Start should fail")
	}

	enc := NewEncoder("E1", c)
	in := Packet{Seq: 1, Payload: []byte("hello")}
	encoded, _ := enc.Process(nil, in)
	ch <- encoded[0].Marshal()
	ch <- []byte{1, 2} // malformed

	deadline := time.Now().Add(time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 1 && sock.DecodeErrors() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d, errors %d", n, sock.DecodeErrors())
		}
		time.Sleep(time.Millisecond)
	}
	if !bytes.Equal(got[0].Payload, in.Payload) {
		t.Error("payload mismatch through recv pipeline")
	}
	close(ch)
	sock.Wait()
}

func TestChainInsertPosition(t *testing.T) {
	sock, err := NewSendSocket(func([]byte) error { return nil },
		NewPassthrough("A"), NewPassthrough("C"))
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := sock.RequestBlock(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sock.InsertFilter(NewPassthrough("B"), 1); err != nil {
		t.Fatal(err)
	}
	got := sock.Filters()
	want := []string{"A", "B", "C"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Filters = %v, want %v", got, want)
		}
	}
	// Duplicate names rejected.
	if err := sock.InsertFilter(NewPassthrough("B"), -1); err == nil {
		t.Error("duplicate filter name should fail")
	}
	if err := sock.ReplaceFilter("A", NewPassthrough("B")); err == nil {
		t.Error("replace creating duplicate should fail")
	}
	if err := sock.RemoveFilter("Z"); err == nil {
		t.Error("removing unknown filter should fail")
	}
	sock.Unblock()
}
