// Package netsim simulates the network substrate of the case study: the
// paper evaluated on a physical wireless testbed (a server multicasting
// video to an iPAQ handheld and a Toughbook laptop over 802.11); this
// package provides the equivalent in-process substrate — multicast groups
// with per-subscriber links exhibiting configurable latency, jitter and
// loss, driven by a seeded PRNG for reproducibility.
//
// Links are FIFO: datagrams that survive loss are delivered to a
// subscriber in the order they were sent, each after its own latency (a
// later datagram never overtakes an earlier one). The protocol and
// safety machinery only depend on ordering, loss and delay, all of which
// the simulator reproduces; see DESIGN.md for the substitution rationale.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
)

// ErrClosed is returned when operating on a closed group or subscription.
var ErrClosed = errors.New("netsim: closed")

// LinkProfile describes delivery characteristics of one subscriber link.
type LinkProfile struct {
	// Latency is the base one-way delay.
	Latency time.Duration
	// Jitter adds a uniformly random extra delay in [0, Jitter).
	Jitter time.Duration
	// LossRate is the probability in [0,1] that a datagram is dropped.
	LossRate float64
}

// Validate checks the profile's ranges.
func (p LinkProfile) Validate() error {
	if p.Latency < 0 || p.Jitter < 0 {
		return fmt.Errorf("netsim: negative latency or jitter")
	}
	if p.LossRate < 0 || p.LossRate > 1 {
		return fmt.Errorf("netsim: loss rate %v outside [0,1]", p.LossRate)
	}
	return nil
}

// Datagram is one unit of network transmission: an opaque payload, like a
// UDP datagram. It is an alias, so a subscription's Recv channel feeds a
// metasocket.RecvSocket directly, with no forwarding goroutine (and no
// uncounted queue) in between.
type Datagram = []byte

// Group is a multicast group: datagrams sent to the group are delivered
// to every subscriber, independently per link.
type Group struct {
	mu     sync.Mutex
	rng    *rand.Rand
	clock  transport.Clock
	subs   map[string]*Subscription
	order  []*Subscription // insertion order: PRNG draws must not depend on map iteration
	closed bool
	tel    atomic.Pointer[groupTelemetry] // lock-free: workers read it under s.mu
}

// groupTelemetry is a registry with the per-datagram handles resolved
// once, so that counting a datagram is an atomic add and not a name
// lookup under the link's lock. Over a nil registry every handle is nil,
// and a nil handle is a no-op.
type groupTelemetry struct {
	reg                      *telemetry.Registry
	sent, delivered, dropped *telemetry.Counter
	inFlight                 *telemetry.Gauge
}

// SetTelemetry installs the telemetry registry the group counts datagram
// traffic on (sent, delivered, dropped, and the in-flight gauge the safe
// condition watches). Nil disables instrumentation.
func (g *Group) SetTelemetry(tel *telemetry.Registry) {
	g.tel.Store(&groupTelemetry{
		reg:       tel,
		sent:      tel.Counter("netsim.datagrams.sent"),
		delivered: tel.Counter("netsim.datagrams.delivered"),
		dropped:   tel.Counter("netsim.datagrams.dropped"),
		inFlight:  tel.Gauge("netsim.datagrams.in_flight"),
	})
}

// recordDrop notes a lost datagram in the flight recorder, when one is
// attached. It reads the Lamport clock, never advances it: telemetry must
// not perturb the PRNG-driven loss/jitter schedule or the protocol's
// clocks, so same-seed runs stay byte-identical with tracing enabled.
func (t *groupTelemetry) recordDrop(detail string) {
	t.dropped.Inc()
	if fr := t.reg.Flight(); fr.Enabled() {
		fr.Record(telemetry.FlightEvent{
			Kind:    telemetry.FlightDrop,
			Lamport: t.reg.LamportNow(),
			TraceID: t.reg.ActiveTrace(),
			Detail:  detail,
		})
	}
}

// NewGroup creates a multicast group with the given PRNG seed. Identical
// seeds and send sequences yield identical loss/jitter decisions.
func NewGroup(seed int64) *Group {
	return NewGroupWithClock(seed, transport.SystemClock)
}

// NewGroupWithClock creates a multicast group whose delivery timing runs
// on the given clock. With a virtual clock, identical seeds and send
// sequences yield bit-identical delivery traces, with no wall-clock
// sleeps anywhere in the delivery path.
func NewGroupWithClock(seed int64, clock transport.Clock) *Group {
	if clock == nil {
		clock = transport.SystemClock
	}
	g := &Group{
		rng:   rand.New(rand.NewSource(seed)),
		clock: clock,
		subs:  make(map[string]*Subscription),
	}
	g.SetTelemetry(nil)
	return g
}

// Subscription is one receiver's membership in a group. Each
// subscription runs a single delivery worker, which is what makes the
// link FIFO.
type Subscription struct {
	group   *Group
	name    string
	profile LinkProfile

	mu   sync.Mutex
	cond *sync.Cond
	// queue[head:] are the datagrams on the wire, in send order. The
	// slice always starts at its array's first element — popping advances
	// head, not the slice — so its capacity survives and append settles
	// at the link's deepest backlog.
	queue   []timedDatagram
	head    int
	ch      chan Datagram
	closed  bool
	workerD chan struct{}

	delivered int
	dropped   int
	inFlight  int
	// onRelease, when set, is called (outside mu) after the link drops a
	// datagram it had accepted; see OnRelease.
	onRelease func()

	// What the flight recorder is told about a drop on this link.
	lossDetail, overflowDetail string
}

type timedDatagram struct {
	payload   Datagram
	deliverAt time.Time
}

// Subscribe adds a named subscriber with the given link profile. The
// returned subscription's Recv channel yields delivered datagrams.
func (g *Group) Subscribe(name string, profile LinkProfile, buffer int) (*Subscription, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	if buffer <= 0 {
		buffer = 256
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, ErrClosed
	}
	if name == "" {
		return nil, fmt.Errorf("netsim: empty subscriber name")
	}
	if _, dup := g.subs[name]; dup {
		return nil, fmt.Errorf("netsim: subscriber %q already exists", name)
	}
	s := &Subscription{
		group:   g,
		name:    name,
		profile: profile,
		ch:      make(chan Datagram, buffer),
		workerD: make(chan struct{}),

		lossDetail:     "netsim datagram loss on link to " + name,
		overflowDetail: "netsim receiver overflow on link to " + name,
	}
	s.cond = sync.NewCond(&s.mu)
	g.subs[name] = s
	g.order = append(g.order, s)
	go s.deliverLoop()
	return s, nil
}

// Send multicasts the datagram to every current subscriber. A payload is
// borrowed for the duration of the call it is passed to; whoever keeps
// bytes past the call copies them: the links keep the datagram until it is
// delivered, so Send copies it, once, and every subscriber receives that
// one copy — shared, and to be treated as read-only.
//
//safeadaptvet:hotpath
func (g *Group) Send(d Datagram) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrClosed
	}
	//safeadaptvet:allow hotpath -- ownership transfer: the sender reuses d as soon as Send returns and the links hold the datagram until delivery, so this copy is theirs
	payload := make(Datagram, len(d))
	copy(payload, d)

	tel := g.tel.Load()
	now := g.clock.Now()
	for _, sub := range g.order {
		// Two PRNG draws per link, in this order, whatever they decide:
		// the loss/jitter schedule is a function of the seed alone.
		drop := sub.profile.LossRate > 0 && g.rng.Float64() < sub.profile.LossRate
		at := now.Add(sub.profile.Latency)
		if sub.profile.Jitter > 0 {
			at = at.Add(time.Duration(g.rng.Int63n(int64(sub.profile.Jitter))))
		}
		if drop {
			sub.noteDropped(tel)
		} else {
			sub.enqueue(payload, at, tel)
		}
	}
	tel.sent.Inc()
	return nil
}

// Close shuts the group down; in-flight datagrams are delivered by the
// subscription workers before their channels close.
func (g *Group) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	subs := make([]*Subscription, 0, len(g.subs))
	for _, s := range g.subs {
		subs = append(subs, s)
	}
	g.mu.Unlock()
	sort.Slice(subs, func(i, j int) bool { return subs[i].name < subs[j].name })

	for _, s := range subs {
		s.close()
	}
	return nil
}

// Recv returns the channel of delivered datagrams. The channel closes
// when the subscription or group closes.
func (s *Subscription) Recv() <-chan Datagram { return s.ch }

// Name returns the subscriber name.
func (s *Subscription) Name() string { return s.name }

// Stats returns how many datagrams were delivered to and dropped on this
// link so far.
func (s *Subscription) Stats() (delivered, dropped int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.delivered, s.dropped
}

// InFlight returns the number of datagrams currently traversing the link
// (enqueued but not yet delivered). It does not see datagrams already
// handed to the Recv channel; drain decisions use Owed.
func (s *Subscription) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inFlight
}

// Owed is the link's side of the drain ledger: how many datagrams it has
// accepted for this receiver and not dropped — those still on the wire
// plus every one handed to the Recv channel so far, read in one critical
// section. A receiver that has processed Owed datagrams has received
// everything the sender has sent (the paper's global safe condition);
// the difference is exactly what is still on the wire or queued between
// the link and the receiver. Datagrams lost to LossRate are never
// accepted and never counted.
func (s *Subscription) Owed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(s.inFlight + s.delivered)
}

// OnRelease registers fn to be called after every event that lowers Owed
// without the receiver seeing a datagram: a receiver-buffer overflow
// drop. The call is made outside the subscription's lock, so fn may take
// locks that are held while calling Owed. Set it before traffic starts.
func (s *Subscription) OnRelease(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onRelease = fn
}

// Unsubscribe removes the subscriber from the group and closes its
// channel after pending deliveries flush.
func (s *Subscription) Unsubscribe() {
	g := s.group
	g.mu.Lock()
	delete(g.subs, s.name)
	for i, sub := range g.order {
		if sub == s {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	g.mu.Unlock()
	s.close()
}

func (s *Subscription) enqueue(d Datagram, at time.Time, tel *groupTelemetry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	//safeadaptvet:allow hotpath -- the wire's queue keeps its capacity (see queue): it grows until it has held the link's deepest backlog
	s.queue = append(s.queue, timedDatagram{payload: d, deliverAt: at})
	s.inFlight++
	tel.inFlight.Add(1)
	s.cond.Broadcast()
}

// dequeue takes the oldest datagram off the wire; the caller holds s.mu
// and has checked there is one. Once the dead prefix is half the slice
// the live half moves down over it, so a pop costs one element's move on
// average and the slice never creeps along its array.
func (s *Subscription) dequeue() timedDatagram {
	item := s.queue[s.head]
	s.queue[s.head] = timedDatagram{}
	s.head++
	if 2*s.head >= len(s.queue) {
		n := copy(s.queue, s.queue[s.head:])
		clear(s.queue[n:])
		s.queue, s.head = s.queue[:n], 0
	}
	return item
}

func (s *Subscription) noteDropped(tel *groupTelemetry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropped++
	tel.recordDrop(s.lossDetail)
}

// deliverLoop is the per-link worker: it delivers queued datagrams in
// send order, waiting out each datagram's remaining delay. FIFO is
// inherent — a datagram is only considered after all its predecessors.
func (s *Subscription) deliverLoop() {
	defer close(s.workerD)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 && s.closed {
			s.mu.Unlock()
			close(s.ch)
			return
		}
		item := s.dequeue()
		s.mu.Unlock()

		clock := s.group.clock
		if wait := item.deliverAt.Sub(clock.Now()); wait > 0 {
			_ = clock.Sleep(context.Background(), wait)
		}

		s.mu.Lock()
		s.inFlight--
		tel := s.group.tel.Load()
		tel.inFlight.Add(-1)
		var released func()
		select {
		case s.ch <- item.payload:
			s.delivered++
			tel.delivered.Inc()
		default:
			// Receiver buffer overflow: the datagram is lost, as on a
			// real congested link.
			s.dropped++
			released = s.onRelease
			tel.recordDrop(s.overflowDetail)
		}
		closedNow := s.closed && len(s.queue) == 0
		s.mu.Unlock()
		if released != nil {
			released()
		}
		if closedNow {
			close(s.ch)
			return
		}
	}
}

func (s *Subscription) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.workerD // worker flushes the queue and closes the channel
}
