//go:build !race

package netsim

import "testing"

// TestSendAllocs: a datagram multicast to two links costs one allocation —
// the copy the links own — however many subscribers share it. (Run without
// the race detector, which adds allocations of its own.)
func TestSendAllocs(t *testing.T) {
	g := NewGroup(1)
	defer func() { _ = g.Close() }()
	var subs []*Subscription
	for _, name := range []string{"a", "b"} {
		sub, err := g.Subscribe(name, LinkProfile{}, 64)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	datagram := make(Datagram, 300)
	send := func() {
		if err := g.Send(datagram); err != nil {
			t.Fatal(err)
		}
		for _, sub := range subs {
			<-sub.Recv()
		}
	}
	for i := 0; i < 64; i++ {
		send() // let the queues reach their capacity
	}
	if n := testing.AllocsPerRun(500, send); n != 1 {
		t.Errorf("%v allocations per datagram sent to two links, want 1", n)
	}
}
