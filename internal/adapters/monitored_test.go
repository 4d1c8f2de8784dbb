package adapters

import (
	"context"
	"sync"
	"testing"

	"repro/internal/metasocket"
)

// errSignalContext closes asked the first time its error is asked for.
type errSignalContext struct {
	context.Context
	once  sync.Once
	asked chan struct{}
}

func (c *errSignalContext) Err() error {
	c.once.Do(func() { close(c.asked) })
	return c.Context.Err()
}

// TestMonitoredBlockLandsOnSafeBoundary: the sender is live, so a frame's
// first fragment can arrive after the monitor reported safe and before the
// block lands — here it is already inside the chain, where the monitor has
// not seen it yet. Checking and then blocking would stop the socket
// mid-frame; Reset must let it run on and block where the frame ends.
func TestMonitoredBlockLandsOnSafeBoundary(t *testing.T) {
	hold := &parkedFilter{started: make(chan struct{}), release: make(chan struct{})}
	sock, err := metasocket.NewRecvSocket(func(metasocket.Packet) error { return nil }, hold)
	if err != nil {
		t.Fatal(err)
	}
	mon := MonitorFrames(sock)
	sp := NewMonitoredRecvProcess("handheld", sock, factory(t), mon)
	datagrams := make(chan []byte, 2)
	if err := sock.Start(datagrams); err != nil {
		t.Fatal(err)
	}
	defer func() {
		sock.Unblock()
		close(datagrams)
		sock.Wait()
	}()
	for i := uint16(0); i < 2; i++ {
		datagrams <- metasocket.Packet{Frame: 7, Index: i, Count: 2, Payload: []byte("x")}.Marshal()
	}
	<-hold.started
	if !mon.Safe() {
		t.Fatal("the monitor has seen nothing yet")
	}

	st := step("A2", nil, [][]string{{"handheld"}})
	ctx := &errSignalContext{Context: context.Background(), asked: make(chan struct{})}
	done := make(chan error, 1)
	go func() { done <- sp.Reset(ctx, st) }()
	// The monitor is safe, so the first to ask the context for its error is
	// the block request, waiting out the packet in the chain.
	<-ctx.asked
	close(hold.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !sock.Blocked() {
		t.Fatal("Reset returned without blocking the socket")
	}
	if !mon.Safe() || sock.Processed() != 2 {
		t.Fatalf("blocked mid-frame: %d of 2 fragments processed, open obligations %v", sock.Processed(), mon.Obligations())
	}
}
