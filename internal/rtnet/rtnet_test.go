package rtnet

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/metasocket"
)

func recvOne(t *testing.T, r *Receiver) []byte {
	t.Helper()
	select {
	case d, ok := <-r.Recv():
		if !ok {
			t.Fatal("receiver channel closed")
		}
		return d
	case <-time.After(2 * time.Second):
		t.Fatal("timed out receiving datagram")
		return nil
	}
}

func TestUnicastFanOut(t *testing.T) {
	r1, err := NewReceiver("127.0.0.1:0", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r1.Close() }()
	r2, err := NewReceiver("127.0.0.1:0", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r2.Close() }()

	tx, err := NewTransmitter(r1.Addr(), r2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tx.Close() }()

	payload := []byte("over real UDP")
	if err := tx.Send(payload); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Receiver{r1, r2} {
		if got := recvOne(t, r); !bytes.Equal(got, payload) {
			t.Errorf("received %q", got)
		}
	}
	if tx.Sent() != 1 {
		t.Errorf("Sent = %d", tx.Sent())
	}
}

func TestManyDatagramsInOrderOnLoopback(t *testing.T) {
	r, err := NewReceiver("127.0.0.1:0", 2048)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	tx, err := NewTransmitter(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tx.Close() }()

	const n = 1000
	for i := 0; i < n; i++ {
		if err := tx.Send([]byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		d := recvOne(t, r)
		if got := int(d[0]) | int(d[1])<<8; got != i {
			t.Fatalf("datagram %d arrived as %d (loopback UDP should be FIFO)", i, got)
		}
	}
	received, dropped := r.Stats()
	if received != n || dropped != 0 {
		t.Errorf("stats: received %d dropped %d", received, dropped)
	}
}

func TestPendingAndClose(t *testing.T) {
	r, err := NewReceiver("127.0.0.1:0", 16)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := NewTransmitter(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tx.Close() }()

	if err := tx.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for r.Pending() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if r.Pending() != 1 {
		t.Fatalf("Pending = %d", r.Pending())
	}
	<-r.Recv()
	if r.Pending() != 0 {
		t.Errorf("Pending after take = %d", r.Pending())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-r.Recv(); ok {
		t.Error("channel should close with the receiver")
	}
	if err := r.Close(); err != nil {
		t.Error("double close should be a no-op:", err)
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewTransmitter(); err == nil {
		t.Error("no addresses should fail")
	}
	if _, err := NewTransmitter("not-an-address::"); err == nil {
		t.Error("bad address should fail")
	}
	if _, err := NewReceiver("not-an-address::", 1); err == nil {
		t.Error("bad listen address should fail")
	}
}

// TestOwedSettlesAfterQuietWindow: the receiver's ledger counts what it
// put on the channel, holds one more while the socket may still have
// datagrams in kernel buffers, and announces the end of that window.
func TestOwedSettlesAfterQuietWindow(t *testing.T) {
	r, err := NewReceiver("127.0.0.1:0", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	tx, err := NewTransmitter(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tx.Close() }()
	if r.Owed() != 0 {
		t.Fatalf("a receiver that has seen nothing owes %d", r.Owed())
	}

	settled := make(chan struct{}, 1)
	r.OnRelease(func() { settled <- struct{}{} })
	sent := time.Now()
	if err := tx.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, r)
	if owed := r.Owed(); owed < 1 {
		t.Fatalf("owed %d after one datagram", owed)
	}
	select {
	case <-settled:
	case <-time.After(2 * time.Second):
		t.Fatal("the quiet window never ended")
	}
	if quiet := time.Since(sent); quiet < quietWindow {
		t.Fatalf("settled after %v, before the %v quiet window", quiet, quietWindow)
	}
	if owed := r.Owed(); owed != 1 {
		t.Fatalf("owed %d once settled, want 1", owed)
	}
}

// TestDrainWaitsOutQuietWindow: against a stopped sender a receive socket's
// drain ends when the UDP socket has been quiet for the window, not when the
// socket has caught up with what was read — and a straggler out of the
// kernel's buffers during the wait opens a new window instead of ending it:
// the drain's watermark never falls inside what cannot be counted.
func TestDrainWaitsOutQuietWindow(t *testing.T) {
	r, err := NewReceiver("127.0.0.1:0", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	tx, err := NewTransmitter(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tx.Close() }()

	delivered := make(chan struct{}, 2)
	sock, err := metasocket.NewRecvSocket(func(metasocket.Packet) error {
		delivered <- struct{}{}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sock.AttachLink(r)
	if err := sock.Start(r.Recv()); err != nil {
		t.Fatal(err)
	}
	datagram := metasocket.Packet{Count: 1, Payload: []byte("x")}.Marshal()
	send := func() time.Time {
		t.Helper()
		if err := tx.Send(datagram); err != nil {
			t.Fatal(err)
		}
		select {
		case <-delivered:
		case <-time.After(2 * time.Second):
			t.Fatal("datagram never delivered")
		}
		return time.Now()
	}

	send()
	done := make(chan error, 1)
	go func() { done <- sock.WaitDrained(context.Background()) }()
	// Let the wait take its mark inside the first window; either order
	// must pass.
	time.Sleep(time.Millisecond)
	last := send() // the socket has caught up with both; only the window is open
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the drain never ended")
	}
	// The window runs from the read, which came before the delivery.
	if quiet := time.Since(last); quiet < quietWindow-time.Millisecond {
		t.Fatalf("drained %v after the last datagram, before the %v quiet window", quiet, quietWindow)
	}
	if !sock.Drained() {
		t.Fatal("not drained after the wait")
	}
}
