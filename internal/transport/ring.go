package transport

import "sync"

// AddrRing is the leader-announcement hop for reconnecting clients: a
// small, mutable set of candidate manager addresses (the leader and its
// hot standbys) behind the `addr func() string` parameter that
// DialReconnectingTCP and DialMux already poll on every redial. While a
// connection is up the ring is never consulted; when it dies, each redial
// attempt probes the next candidate in round-robin order, so a client
// finds a promoted standby within len(ring) redial delays without any
// out-of-band announcement — the standby's address was in the ring from
// the start, and epoch fencing sorts out which incarnation's messages
// still matter after the chase.
type AddrRing struct {
	mu    sync.Mutex
	addrs []string
	next  int
}

// NewAddrRing returns a ring over the given candidate addresses. The
// first address is probed first, so list the current leader first.
func NewAddrRing(addrs ...string) *AddrRing {
	r := &AddrRing{}
	r.Set(addrs...)
	return r
}

// Set replaces the candidate set (e.g. after a standby joins or a fenced
// ex-leader is decommissioned) and restarts probing from the first entry.
func (r *AddrRing) Set(addrs ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addrs = append([]string(nil), addrs...)
	r.next = 0
}

// Next returns the next candidate address, advancing the ring. It is the
// function to pass as the addr parameter of DialReconnectingTCP / DialMux
// (pass r.Next itself). An empty ring returns "", which fails the dial
// and retries after the redial delay, like any dead address.
func (r *AddrRing) Next() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.addrs) == 0 {
		return ""
	}
	a := r.addrs[r.next%len(r.addrs)]
	r.next = (r.next + 1) % len(r.addrs)
	return a
}
