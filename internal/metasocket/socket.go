package metasocket

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNotBlocked is returned by chain recomposition operations invoked
// while the socket is not blocked: the in-action may only run in the
// local safe state.
var ErrNotBlocked = errors.New("metasocket: socket is not blocked; recomposition requires the local safe state")

// blocker implements the paper's resetting/blocking handshake shared by
// both socket directions: processing happens packet-at-a-time inside a
// critical section; RequestBlock waits for the current packet to finish
// (the packet boundary is the local safe state) and then holds the socket
// blocked until Unblock.
type blocker struct {
	mu      sync.Mutex
	cond    *sync.Cond
	blocked bool
	busy    bool
	closed  bool
	// blockedAt is when the RequestBlock now in force succeeded (zero
	// when none is); unblock measures the blackout from it.
	blockedAt time.Time
}

func newBlocker() *blocker {
	b := &blocker{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// enter begins processing one packet, waiting while the socket is
// blocked. It returns false when the socket closed.
func (b *blocker) enter() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for (b.blocked || b.busy) && !b.closed {
		b.cond.Wait()
	}
	if b.closed {
		return false
	}
	b.busy = true
	return true
}

// exit ends the current packet's processing.
func (b *blocker) exit() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.busy = false
	b.cond.Broadcast()
}

// RequestBlock sets the resetting flag and waits until the in-progress
// packet (if any) completes, leaving the socket blocked at a packet
// boundary — the local safe state. It honors ctx: on cancellation the
// flag is cleared and the socket resumes.
func (b *blocker) RequestBlock(ctx context.Context) error {
	stop := context.AfterFunc(ctx, b.wake)
	defer stop()

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return errors.New("metasocket: socket closed")
	}
	b.blocked = true
	for b.busy && ctx.Err() == nil && !b.closed {
		b.cond.Wait()
	}
	if err := ctx.Err(); err != nil {
		b.blocked = false
		b.cond.Broadcast()
		return fmt.Errorf("metasocket: fail to reach safe state: %w", err)
	}
	if b.closed {
		b.blocked = false
		return errors.New("metasocket: socket closed")
	}
	b.blockedAt = time.Now()
	return nil
}

// wake makes every goroutine waiting on the blocker's condition
// re-evaluate it. It takes the lock so that a waiter between its check
// and its Wait cannot miss the signal.
func (b *blocker) wake() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cond.Broadcast()
}

// unblock resumes packet processing and reports how long the socket had
// been held blocked (false when no RequestBlock was in force).
func (b *blocker) unblock() (held time.Duration, wasBlocked bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.blockedAt.IsZero() {
		held, wasBlocked = time.Since(b.blockedAt), true
		b.blockedAt = time.Time{}
	}
	b.blocked = false
	b.cond.Broadcast()
	return held, wasBlocked
}

// Blocked reports whether the socket is currently held blocked.
func (b *blocker) Blocked() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.blocked && !b.busy
}

func (b *blocker) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.cond.Broadcast()
}

// chain is a recomposable filter chain; mutations require the owner to be
// blocked, enforced by the sockets.
type chain struct {
	mu      sync.Mutex
	filters []Filter
	// snap is the immutable snapshot run iterates: rebuilt (as a fresh
	// slice, so an in-flight run holding the old one is unaffected) on
	// every mutation instead of copied on every packet, and published
	// atomically so run takes no lock.
	snap atomic.Pointer[[]Filter]
	// one, runA and runB are run's scratch: the input packet's slot and
	// the two slices the stages ping-pong between, which filters append
	// to and which keep their capacity across packets. The blocker
	// serializes packet processing (one run at a time per socket), so the
	// scratch has a single owner.
	one        [1]Packet
	runA, runB []Packet
}

// rebuildLocked refreshes the run snapshot; callers hold c.mu.
func (c *chain) rebuildLocked() {
	snap := slices.Clone(c.filters)
	c.snap.Store(&snap)
}

func (c *chain) names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.filters))
	for i, f := range c.filters {
		out[i] = f.Name()
	}
	return out
}

func (c *chain) indexOf(name string) int {
	for i, f := range c.filters {
		if f.Name() == name {
			return i
		}
	}
	return -1
}

func (c *chain) insert(f Filter, at int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.indexOf(f.Name()) >= 0 {
		return fmt.Errorf("metasocket: filter %q already in chain", f.Name())
	}
	if at < 0 || at > len(c.filters) {
		at = len(c.filters)
	}
	c.filters = append(c.filters, nil)
	copy(c.filters[at+1:], c.filters[at:])
	c.filters[at] = f
	c.rebuildLocked()
	return nil
}

func (c *chain) remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.indexOf(name)
	if i < 0 {
		return fmt.Errorf("metasocket: filter %q not in chain", name)
	}
	c.filters = append(c.filters[:i], c.filters[i+1:]...)
	c.rebuildLocked()
	return nil
}

func (c *chain) replace(oldName string, f Filter) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.indexOf(oldName)
	if i < 0 {
		return fmt.Errorf("metasocket: filter %q not in chain", oldName)
	}
	if j := c.indexOf(f.Name()); j >= 0 && j != i {
		return fmt.Errorf("metasocket: filter %q already in chain", f.Name())
	}
	c.filters[i] = f
	c.rebuildLocked()
	return nil
}

// run pushes one packet through the chain. The returned slice is the
// chain's scratch, and the payloads in it may sit in buffers the filters
// own: all of it is valid until the next run, so callers must finish with
// it (or copy) before processing another packet — the blocker's
// one-packet-at-a-time discipline guarantees exactly that.
func (c *chain) run(p Packet) ([]Packet, error) {
	c.one[0] = p
	in := c.one[:]
	var filters []Filter
	if snap := c.snap.Load(); snap != nil {
		filters = *snap
	}
	for _, f := range filters {
		out := c.runA[:0]
		for i, q := range in {
			n := len(out)
			var err error
			if out, err = f.Process(out, q); err != nil {
				return nil, err
			}
			if i == len(in)-1 {
				break
			}
			// f runs again before anyone reads what it just emitted, and
			// may reuse the buffer that payload sits in. The chain is the
			// one keeping those bytes past the call, so it copies. Only a
			// stage downstream of a fan-out (FEC parity) gets here.
			for k := n; k < len(out); k++ {
				out[k].Payload = bytes.Clone(out[k].Payload)
			}
		}
		// This stage's output is the next one's input, and the next one
		// writes the other slice.
		in, c.runA, c.runB = out, c.runB, out
		if len(in) == 0 {
			return nil, nil
		}
	}
	return in, nil
}
