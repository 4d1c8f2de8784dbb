package metasocket

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubLink is a Link the test drives by hand: accept puts a datagram "on
// the wire" (owed, not yet handed over), handOver moves it into the
// channel the socket consumes, drop loses it on the link.
type stubLink struct {
	mu      sync.Mutex
	owed    uint64
	release func()
	ch      chan []byte
}

func newStubLink() *stubLink { return &stubLink{ch: make(chan []byte, 16)} }

func (l *stubLink) Owed() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.owed
}

func (l *stubLink) OnRelease(fn func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.release = fn
}

func (l *stubLink) accept() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.owed++
}

func (l *stubLink) handOver() { l.ch <- Packet{Count: 1, Payload: []byte("x")}.Marshal() }

func (l *stubLink) drop() {
	l.mu.Lock()
	l.owed--
	fn := l.release
	l.mu.Unlock()
	fn() // outside the link's lock, as the Link contract requires
}

// drainInBackground starts WaitDrained and returns the channel its result
// arrives on.
func drainInBackground(ctx context.Context, sock *RecvSocket) <-chan error {
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		done <- sock.WaitDrained(ctx)
	}()
	<-started
	return done
}

func stillWaiting(t *testing.T, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("WaitDrained returned (%v) while a datagram was still owed", err)
	default:
	}
}

func linkedSocket(t *testing.T, sink SinkFunc) (*RecvSocket, *stubLink) {
	t.Helper()
	sock, err := NewRecvSocket(sink)
	if err != nil {
		t.Fatal(err)
	}
	link := newStubLink()
	sock.AttachLink(link)
	return sock, link
}

// TestDrainHeldByHandOffQueue: a datagram the link has already handed
// over but the socket has not taken — invisible to an in-flight count,
// with the socket idle — holds the drain open, and processing it
// releases the waiter.
func TestDrainHeldByHandOffQueue(t *testing.T) {
	sock, link := linkedSocket(t, func(Packet) error { return nil })
	link.accept()
	link.handOver()
	if sock.Drained() {
		t.Fatal("drained with a datagram parked between link and socket")
	}
	if got := sock.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
	done := drainInBackground(context.Background(), sock)
	stillWaiting(t, done)

	if err := sock.Start(link.ch); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("WaitDrained: %v", err)
	}
	if !sock.Drained() || sock.Processed() != 1 {
		t.Fatalf("after drain: drained=%v processed=%d", sock.Drained(), sock.Processed())
	}
	close(link.ch)
	sock.Wait()
}

// TestDrainHeldWhileProcessing: the datagram inside the decoder chain is
// still owed until the packet boundary.
func TestDrainHeldWhileProcessing(t *testing.T) {
	entered, leave := make(chan struct{}), make(chan struct{})
	sock, link := linkedSocket(t, func(Packet) error {
		close(entered)
		<-leave
		return nil
	})
	if err := sock.Start(link.ch); err != nil {
		t.Fatal(err)
	}
	link.accept()
	link.handOver()
	<-entered
	if sock.Drained() {
		t.Fatal("drained while the sink still holds the packet")
	}
	done := drainInBackground(context.Background(), sock)
	stillWaiting(t, done)
	close(leave)
	if err := <-done; err != nil {
		t.Fatalf("WaitDrained: %v", err)
	}
	close(link.ch)
	sock.Wait()
}

// TestDrainReleasedByLinkDrop: a datagram the link accepted and then lost
// (receiver overflow) must release the waiter; nothing will ever be
// processed for it.
func TestDrainReleasedByLinkDrop(t *testing.T) {
	sock, link := linkedSocket(t, func(Packet) error { return nil })
	link.accept()
	done := drainInBackground(context.Background(), sock)
	stillWaiting(t, done)
	link.drop()
	if err := <-done; err != nil {
		t.Fatalf("WaitDrained: %v", err)
	}
}

// TestDrainContextExpiry: an expired context ends the wait with its
// error, and the socket is left unblocked and usable.
func TestDrainContextExpiry(t *testing.T) {
	sock, link := linkedSocket(t, func(Packet) error { return nil })
	if err := sock.Start(link.ch); err != nil {
		t.Fatal(err)
	}
	link.accept() // stays on the wire
	ctx, cancel := context.WithCancel(context.Background())
	done := drainInBackground(ctx, sock)
	stillWaiting(t, done)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitDrained = %v, want context.Canceled", err)
	}
	if sock.Blocked() {
		t.Fatal("a failed drain must not leave the socket blocked")
	}
	// The late datagram is processed normally.
	link.handOver()
	if err := sock.WaitDrained(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(link.ch)
	sock.Wait()
}

// TestDrainOnClosedLink: a link that closes still hands over what it had
// accepted, and the drain returns once that is processed; when the socket
// itself is torn down with datagrams still owed, the drain fails instead
// of hanging.
func TestDrainOnClosedLink(t *testing.T) {
	sock, link := linkedSocket(t, func(Packet) error { return nil })
	link.accept()
	link.handOver()
	close(link.ch)
	done := drainInBackground(context.Background(), sock)
	if err := sock.Start(link.ch); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("WaitDrained on a closed link: %v", err)
	}

	link.accept() // never handed over: the link is gone
	done = drainInBackground(context.Background(), sock)
	stillWaiting(t, done)
	sock.Wait()
	if err := <-done; err == nil {
		t.Fatal("WaitDrained on a closed socket with a datagram owed must fail")
	}
}

// TestDrainedWithoutLink: with no link attached the socket vouches only
// for itself — drained means idle.
func TestDrainedWithoutLink(t *testing.T) {
	sock, err := NewRecvSocket(func(Packet) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !sock.Drained() || sock.Pending() != 0 {
		t.Error("an idle socket with no link is drained")
	}
	if err := sock.WaitDrained(context.Background()); err != nil {
		t.Errorf("WaitDrained: %v", err)
	}
}

// TestDrainUnderLiveTraffic hammers the waiter with concurrent
// deliveries, drops and drains; run under -race.
func TestDrainUnderLiveTraffic(t *testing.T) {
	var delivered atomic.Uint64
	sock, link := linkedSocket(t, func(Packet) error { delivered.Add(1); return nil })
	if err := sock.Start(link.ch); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			link.accept()
			if i%7 == 0 {
				link.drop()
				continue
			}
			link.handOver()
		}
	}()
	for i := 0; i < 50; i++ {
		if err := sock.WaitDrained(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := sock.WaitDrained(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := sock.Processed(), link.Owed(); got != want {
		t.Fatalf("processed %d, link owes %d", got, want)
	}
	if delivered.Load() != sock.Processed() {
		t.Fatalf("sink saw %d of %d", delivered.Load(), sock.Processed())
	}
	close(link.ch)
	sock.Wait()
}

// gatedSocket is a linked socket whose sink announces each packet on
// entered and holds it until the test sends on leave: the test decides
// when every datagram leaves the chain.
func gatedSocket(t *testing.T) (sock *RecvSocket, link *stubLink, entered, leave chan struct{}) {
	t.Helper()
	entered, leave = make(chan struct{}), make(chan struct{})
	sock, link = linkedSocket(t, func(Packet) error {
		entered <- struct{}{}
		<-leave
		return nil
	})
	if err := sock.Start(link.ch); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(link.ch)
		close(leave)
		go func() {
			for range entered {
			}
		}()
		sock.Wait()
		close(entered)
	})
	return sock, link, entered, leave
}

// send puts n datagrams on the wire and hands them over.
func (l *stubLink) send(n int) {
	for i := 0; i < n; i++ {
		l.accept()
		l.handOver()
	}
}

// drainFrom starts WaitDrained and returns once it has taken its mark,
// which must be want: what the test does to the link afterwards happens
// after the wait began.
func drainFrom(t *testing.T, sock *RecvSocket, want uint64) <-chan error {
	t.Helper()
	done := drainInBackground(context.Background(), sock)
	for {
		mark := sock.mark.Load()
		if mark == want {
			return done
		}
		if mark != noMark {
			t.Fatalf("WaitDrained marked %d, want %d", mark, want)
		}
		runtime.Gosched()
	}
}

func drained(t *testing.T, done <-chan error) {
	t.Helper()
	if err := <-done; err != nil {
		t.Fatalf("WaitDrained: %v", err)
	}
}

// TestDrainToWatermarkUnderLiveSender: with a sender that never pauses —
// the link always owes the socket at least one datagram more — the wait
// returns when the last datagram accepted before it began has left the
// chain: not before, and without waiting for one accepted after.
func TestDrainToWatermarkUnderLiveSender(t *testing.T) {
	sock, link, entered, leave := gatedSocket(t)
	link.send(2)
	<-entered // the first is in the sink
	done := drainFrom(t, sock, 2)

	link.send(1) // past the mark
	leave <- struct{}{}
	<-entered // the first has left, the second is in the sink
	stillWaiting(t, done)

	link.send(1)
	leave <- struct{}{} // the second leaves: everything below the mark has landed
	drained(t, done)
	<-entered // the third is in the sink, the fourth queued behind it
	if sock.Drained() || sock.Pending() != 2 {
		t.Fatalf("after the wait: drained=%v pending=%d, want a live link owing 2", sock.Drained(), sock.Pending())
	}
	leave <- struct{}{}
	<-entered
	leave <- struct{}{}
}

// TestDrainWatermarkAndLinkDrops: a drop lowers what the link owes, never
// the mark. With the sender stopped the two fall together and the drop
// releases the wait, as before; a drop past the mark does not end the wait
// early; and a drop below the mark that the socket cannot tell from one
// past it is made up by the next datagram through, which errs on the side
// of waiting.
func TestDrainWatermarkAndLinkDrops(t *testing.T) {
	t.Run("below the mark, sender stopped", func(t *testing.T) {
		sock, link, entered, leave := gatedSocket(t)
		link.send(1)
		link.accept() // stays on the wire
		<-entered
		done := drainFrom(t, sock, 2)
		link.drop() // the link's drops happen at its head: this is the second
		stillWaiting(t, done)
		leave <- struct{}{}
		drained(t, done)
	})
	t.Run("past the mark", func(t *testing.T) {
		sock, link, entered, leave := gatedSocket(t)
		link.send(2)
		<-entered
		done := drainFrom(t, sock, 2)
		link.accept()
		link.drop() // the third: both below the mark are still owed
		leave <- struct{}{}
		<-entered
		stillWaiting(t, done)
		leave <- struct{}{}
		drained(t, done)
	})
	t.Run("below the mark, sender live", func(t *testing.T) {
		sock, link, entered, leave := gatedSocket(t)
		link.send(1)
		link.accept() // the second, on the wire
		<-entered
		done := drainFrom(t, sock, 2)
		link.accept() // the third, behind it
		link.drop()   // the head of the wire: the second
		leave <- struct{}{}
		stillWaiting(t, done)
		link.handOver() // the third stands in for it
		<-entered
		leave <- struct{}{}
		drained(t, done)
	})
}

// TestBlackoutTelemetryNilRegistryZeroAlloc: the blackout histograms cost
// nothing on a socket with no registry.
func TestBlackoutTelemetryNilRegistryZeroAlloc(t *testing.T) {
	recv, err := NewRecvSocket(func(Packet) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	send, err := NewSendSocket(func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	allocs := testing.AllocsPerRun(100, func() {
		recv.blockedAt, send.blockedAt = now, now
		recv.Unblock()
		send.Unblock()
	})
	if allocs != 0 {
		t.Fatalf("Unblock with no registry allocates %.1f per call, want 0", allocs)
	}
}
