package metasocket

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// SinkFunc receives packets after decoder-chain processing; the video
// client wires it to the depacketizer/player.
//
// A payload is borrowed for the duration of the call it is passed to;
// whoever keeps bytes past the call copies them. The payload sits in the
// datagram (shared, read-only, with every other subscriber of the link)
// or in a buffer the last decoder reuses for the next packet: a sink
// that stores the Packet it was handed, without copying Payload, will
// find other bytes there later. (video.Player copies each fragment into
// its frame's buffer; a relay's sink finishes its Send before returning.)
type SinkFunc func(Packet) error

// Link is what a receive socket needs from the network link that feeds
// it to decide, exactly, that it has received everything the sender has
// sent. *netsim.Subscription and *rtnet.Receiver implement it.
type Link interface {
	// Owed returns how many datagrams the link has accepted for this
	// receiver and not dropped, since it opened: those still in transit
	// plus those handed to the receiver's channel, counted so that a
	// datagram moving from one to the other is never missed.
	Owed() uint64
	// OnRelease registers fn to be called, outside the link's locks,
	// whenever Owed falls without a datagram reaching the receiver (a
	// link-side drop).
	OnRelease(fn func())
}

// RecvSocket is the receiving half of a MetaSocket: datagrams from the
// network traverse the decoder filter chain and are delivered to the
// sink. Like SendSocket, its chain is recomposable while blocked.
type RecvSocket struct {
	*blocker
	chain chain
	sink  SinkFunc

	processed atomic.Uint64
	decodeErr atomic.Uint64
	tel       atomic.Pointer[recvTelemetry]

	// link, when attached, is the ledger of what the network owes this
	// socket; Drained compares it with processed.
	link Link
	// mark is what the link owed when the latest WaitDrained began; noMark
	// before the first.
	mark atomic.Uint64

	// observeArrival, when set, sees every packet after unmarshalling and
	// before chain processing; the CCS instrumentation hooks in here.
	observeArrival func(Packet)
	// observeDelivery, when set, sees every packet emitted to the sink.
	observeDelivery func(Packet)

	// stacks interns whole tag stacks across datagrams, keyed by the raw
	// header bytes that spell them (see parse): the same few stacks
	// arrive on every packet, so each is built once at first sight. It
	// holds at most maxInternedStacks. Owned by the single delivery
	// goroutine — no locking.
	stacks map[string][]string

	wg      sync.WaitGroup
	started bool
}

// NewRecvSocket builds a receive socket with the given initial decoder
// chain.
func NewRecvSocket(sink SinkFunc, filters ...Filter) (*RecvSocket, error) {
	if sink == nil {
		return nil, fmt.Errorf("metasocket: nil sink function")
	}
	r := &RecvSocket{blocker: newBlocker(), sink: sink, stacks: make(map[string][]string, 8)}
	r.mark.Store(noMark)
	r.SetTelemetry(nil)
	for _, f := range filters {
		if err := r.chain.insert(f, -1); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// recvTelemetry is a registry with the per-packet handles resolved once;
// see sendTelemetry.
type recvTelemetry struct {
	reg                               *telemetry.Registry
	packets, decodeErrors, sinkErrors *telemetry.Counter
}

// SetTelemetry installs the telemetry registry the socket reports packet
// counts and blocking latency to. Nil disables instrumentation.
func (r *RecvSocket) SetTelemetry(tel *telemetry.Registry) {
	r.tel.Store(&recvTelemetry{
		reg:          tel,
		packets:      tel.Counter("metasocket.recv.packets"),
		decodeErrors: tel.Counter("metasocket.recv.decode_errors"),
		sinkErrors:   tel.Counter("metasocket.recv.sink_errors"),
	})
}

// AttachLink attaches the link whose channel the socket consumes, making
// Drained exact: the socket then knows of every datagram on the wire or
// queued anywhere between the link and its decoder chain. The socket must
// be the only consumer of the link's channel. Attach before traffic
// starts.
func (r *RecvSocket) AttachLink(l Link) {
	r.link = l
	l.OnRelease(r.wake)
}

// SetArrivalObserver installs a hook that sees every packet after
// unmarshalling, before the decoder chain runs. Set it before traffic
// starts. A payload is borrowed for the duration of the call it is passed
// to; whoever keeps bytes past the call copies them.
func (r *RecvSocket) SetArrivalObserver(fn func(Packet)) { r.observeArrival = fn }

// SetDeliveryObserver installs a hook that sees every packet the chain
// emits to the sink. Set it before traffic starts. A payload is borrowed
// for the duration of the call it is passed to; whoever keeps bytes past
// the call copies them.
func (r *RecvSocket) SetDeliveryObserver(fn func(Packet)) { r.observeDelivery = fn }

// Start consumes datagrams from the channel until it closes. It may be
// called once; Wait (or Close-like teardown by closing the channel)
// joins the consumer goroutine.
func (r *RecvSocket) Start(datagrams <-chan []byte) error {
	if r.started {
		return fmt.Errorf("metasocket: recv socket already started")
	}
	r.started = true
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for d := range datagrams {
			r.deliver(d)
		}
	}()
	return nil
}

// Wait blocks until the consumer goroutine exits (after the datagram
// channel closes).
func (r *RecvSocket) Wait() {
	r.wg.Wait()
	r.blocker.close()
}

// deliver runs one datagram through the decoder chain. The datagram is
// only read: the link hands the same bytes to every subscriber, and the
// packet parsed from it aliases them.
//
//safeadaptvet:hotpath
func (r *RecvSocket) deliver(datagram []byte) {
	if !r.enter() {
		return
	}
	defer r.exit()
	defer r.processed.Add(1)

	tel := r.tel.Load()
	p, err := parse(datagram, r.stacks)
	if err != nil {
		r.decodeErr.Add(1)
		tel.decodeErrors.Inc()
		return
	}
	if r.observeArrival != nil {
		r.observeArrival(p)
	}
	outs, err := r.chain.run(p)
	if err != nil {
		r.decodeErr.Add(1)
		tel.decodeErrors.Inc()
		return
	}
	tel.packets.Inc()
	for _, out := range outs {
		if r.observeDelivery != nil {
			r.observeDelivery(out)
		}
		if err := r.sink(out); err != nil {
			r.decodeErr.Add(1)
			tel.sinkErrors.Inc()
		}
	}
}

// Processed returns the number of datagrams fully processed.
func (r *RecvSocket) Processed() uint64 { return r.processed.Load() }

// DecodeErrors returns the number of datagrams that failed unmarshalling,
// chain processing, or sink delivery.
func (r *RecvSocket) DecodeErrors() uint64 { return r.decodeErr.Load() }

// Pending returns how many datagrams the attached link has accepted for
// this socket that the socket has not finished processing: on the wire,
// in any queue between link and socket, or in the decoder chain. Without
// an attached link it is 0.
func (r *RecvSocket) Pending() int { return r.pendingBelow(noMark) }

// noMark is the watermark every owed datagram is below.
const noMark uint64 = math.MaxUint64

// pendingBelow is Pending over the first mark datagrams the link owes.
// The link is FIFO and processed counts a datagram once its packets have
// left the sink, so processed >= mark says everything accepted before Owed
// read mark has landed. A drop lowers Owed, never mark: past a live
// sender's mark a later datagram is held in a dropped one's place.
func (r *RecvSocket) pendingBelow(mark uint64) int {
	if r.link == nil {
		return 0
	}
	// processed is read after Owed, so under a live sender it can have
	// run ahead of the value Owed returned; it never exceeds the current
	// one.
	if owed, done := min(r.link.Owed(), mark), r.processed.Load(); owed > done {
		return int(owed - done)
	}
	return 0
}

// Drained reports the socket's share of the paper's global safe
// condition ("the receiver has received all the datagram packets that the
// sender has sent"): every datagram the link accepted for this socket has
// been processed by it or counted dropped by the link, and none is being
// processed. It is stable once the upstream sender is blocked (the
// manager's reset phases guarantee that ordering); with a live sender it
// holds only for the instant it is read.
func (r *RecvSocket) Drained() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.drainedLocked()
}

func (r *RecvSocket) drainedLocked() bool { return !r.busy && r.Pending() == 0 }

// WaitDrained blocks until the socket has processed, or the link has
// dropped, every datagram the link had accepted when the wait began (a
// watermark on a FIFO link: Drained against a blocked sender, at most a
// link latency against a live one), or the socket closes, or ctx expires.
// It does not poll: the only events that can make the condition true — a
// packet leaving the decoder chain, a drop on the link — wake it through
// the blocker's condition variable.
func (r *RecvSocket) WaitDrained(ctx context.Context) error {
	start := time.Now()
	stop := context.AfterFunc(ctx, r.wake)
	defer stop()

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.link != nil {
		r.mark.Store(r.link.Owed())
	}
	mark := r.mark.Load()
	for r.pendingBelow(mark) > 0 || (r.link == nil && r.busy) {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("metasocket: drain: %w", err)
		}
		if r.closed {
			return errors.New("metasocket: drain: socket closed")
		}
		r.cond.Wait()
	}
	r.tel.Load().reg.Histogram("metasocket.recv.drain.latency").ObserveSince(start)
	return nil
}

// RequestBlock drives the socket to its local safe state; see blocker.
// (The receive socket's local safe state is "no datagram is being
// decoded or delivered".)
func (r *RecvSocket) RequestBlock(ctx context.Context) error {
	start := time.Now()
	err := r.blocker.RequestBlock(ctx)
	tel := r.tel.Load().reg
	if err != nil {
		tel.Counter("metasocket.recv.block_failures").Inc()
		return err
	}
	tel.Histogram("metasocket.recv.block.latency").ObserveSince(start)
	// What a recomposition now would strand: datagrams accepted before the
	// socket's latest drain began (all it is owed, if it never drained)
	// and still unprocessed. 0 after a drained reset, live sender or not.
	if r.link != nil {
		tel.Gauge("metasocket.recv.pending_at_block").Set(int64(r.pendingBelow(r.mark.Load())))
	}
	return nil
}

// Unblock resumes packet processing. The time the socket was held
// blocked — the receiver's blackout — is recorded.
func (r *RecvSocket) Unblock() {
	if held, ok := r.unblock(); ok {
		r.tel.Load().reg.Histogram("metasocket.recv.blocked.latency").Observe(held)
	}
}

// Filters returns the chain's filter names in order.
func (r *RecvSocket) Filters() []string { return r.chain.names() }

// InsertFilter appends (at == -1) or inserts the filter. The socket must
// be blocked.
func (r *RecvSocket) InsertFilter(f Filter, at int) error {
	if !r.Blocked() {
		return ErrNotBlocked
	}
	return r.chain.insert(f, at)
}

// RemoveFilter removes the named filter. The socket must be blocked.
func (r *RecvSocket) RemoveFilter(name string) error {
	if !r.Blocked() {
		return ErrNotBlocked
	}
	return r.chain.remove(name)
}

// ReplaceFilter swaps the named filter for f in place. The socket must be
// blocked.
func (r *RecvSocket) ReplaceFilter(oldName string, f Filter) error {
	if !r.Blocked() {
		return ErrNotBlocked
	}
	return r.chain.replace(oldName, f)
}

// UnsafeInsertFilter, UnsafeRemoveFilter and UnsafeReplaceFilter mutate
// the chain without requiring the safe state. They exist solely for the
// baseline comparison (internal/baseline): the paper's claim is exactly
// that adapting this way corrupts the stream.
func (r *RecvSocket) UnsafeInsertFilter(f Filter, at int) error { return r.chain.insert(f, at) }

// UnsafeRemoveFilter removes without blocking; see UnsafeInsertFilter.
func (r *RecvSocket) UnsafeRemoveFilter(name string) error { return r.chain.remove(name) }

// UnsafeReplaceFilter replaces without blocking; see UnsafeInsertFilter.
func (r *RecvSocket) UnsafeReplaceFilter(oldName string, f Filter) error {
	return r.chain.replace(oldName, f)
}
