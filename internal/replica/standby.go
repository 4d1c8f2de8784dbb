package replica

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/manager"
	"repro/internal/planner"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// StandbyOptions configures a hot standby.
type StandbyOptions struct {
	// Name identifies the standby to the leader (logs and telemetry).
	Name string
	// Rank is the standby's election rank (>= 1). On takeover the standby
	// commits epoch LastEpoch + Rank, so standbys with distinct ranks can
	// NEVER commit the same epoch — simultaneous candidates are totally
	// ordered by agent-side fencing instead of splitting the brain. Zero
	// means 1.
	Rank int
	// Journal is the standby's own local write-ahead log. Every
	// replicated record is appended (and synced) into it before the batch
	// is acknowledged, so a promoted standby continues the log durably
	// and a later cold recovery can replay takeover history. Required for
	// Promote.
	Journal journal.Journal
	// LeaseTTL is the takeover horizon used until the first frame from
	// the leader announces the authoritative one. Zero means 1s.
	LeaseTTL time.Duration
	// Telemetry receives standby metrics (nil-safe).
	Telemetry *telemetry.Registry
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Standby follows a leader's replication stream, maintaining the
// recovery state in memory so a takeover needs no journal replay.
type Standby struct {
	opts    StandbyOptions
	conn    net.Conn
	in      *frameReader // stream goroutine only, once ConnectStandby returns
	out     *frameWriter
	applier *Applier
	tel     *telemetry.Registry

	mu        sync.Mutex
	lastFrame time.Time
	ttl       time.Duration
	lostAt    time.Time // when the lease was declared expired
	detached  bool
	detachWhy string
	closed    bool

	leaderLost chan struct{} // closed once on lease expiry
	done       chan struct{} // closed when the stream loop exits
	closing    chan struct{} // closed by Close/Promote to wake the watcher
	wg         sync.WaitGroup
}

// ConnectStandby dials the leader's replication address, registers, and
// applies the snapshot before returning — a returned Standby is caught up
// and immediately eligible for takeover.
func ConnectStandby(addr string, opts StandbyOptions) (*Standby, error) {
	if opts.Rank <= 0 {
		opts.Rank = 1
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = time.Second
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("replica: dial leader: %w", err)
	}
	out := &frameWriter{w: conn}
	if _, err := out.write(frame{Type: frameHello, Name: opts.Name, Rank: opts.Rank}); err != nil {
		_ = conn.Close()
		return nil, err
	}
	in := newFrameReader(conn)
	snap, err := in.read()
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("replica: snapshot: %w", err)
	}
	if snap.Type != frameSnapshot {
		_ = conn.Close()
		return nil, fmt.Errorf("replica: expected snapshot, got %q", snap.Type)
	}
	s := &Standby{
		opts:       opts,
		conn:       conn,
		in:         in,
		out:        out,
		applier:    &Applier{},
		tel:        opts.Telemetry,
		ttl:        opts.LeaseTTL,
		leaderLost: make(chan struct{}),
		done:       make(chan struct{}),
		closing:    make(chan struct{}),
	}
	if ms := snap.TTLMillis; ms > 0 {
		s.ttl = time.Duration(ms) * time.Millisecond
	}
	s.lastFrame = transport.SystemClock.Now()
	if err := s.absorb(snap.Recs); err != nil {
		_ = conn.Close()
		return nil, err
	}
	s.logf("replica: standby %q caught up at seq %d (%d records), lease TTL %v",
		opts.Name, s.applier.LastSeq(), s.applier.Records(), s.ttl)
	s.wg.Add(2)
	go s.run()
	go s.watchLease()
	return s, nil
}

func (s *Standby) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// absorb applies one record batch to the in-memory state and appends the
// new records durably to the local journal.
func (s *Standby) absorb(recs []journal.Record) error {
	before := s.applier.LastSeq()
	applied := s.applier.Apply(recs)
	if applied == 0 {
		return nil
	}
	s.tel.Counter("replica.standby.records_applied").Add(int64(applied))
	s.tel.Gauge("replica.standby.last_seq").Set(int64(s.applier.LastSeq()))
	if s.opts.Journal == nil {
		return nil
	}
	for _, r := range recs {
		if r.Seq <= before {
			continue
		}
		if err := s.opts.Journal.Append(r); err != nil {
			return fmt.Errorf("replica: standby journal append: %w", err)
		}
	}
	if err := s.opts.Journal.Sync(); err != nil {
		return fmt.Errorf("replica: standby journal sync: %w", err)
	}
	return nil
}

// run is the stream loop: apply record batches (durably) then ack them,
// refresh the lease on every frame, honor detach notices. A read error
// just ends the loop — the lease watcher decides whether the silence
// amounts to leader death.
func (s *Standby) run() {
	defer s.wg.Done()
	defer close(s.done)
	for {
		f, err := s.in.read()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.lastFrame = transport.SystemClock.Now()
		if ms := f.TTLMillis; ms > 0 {
			s.ttl = time.Duration(ms) * time.Millisecond
		}
		s.mu.Unlock()
		//safeadaptvet:ignore-msg frameHello frameSnapshot frameAck frameLease -- hello and snapshot are consumed by the attach handshake before this loop starts; ack flows standby-to-leader only; lease renewal acts through TTLMillis, which is read off every frame above this switch
		switch f.Type {
		case frameRecords:
			if err := s.absorb(f.Recs); err != nil {
				// A standby that cannot journal what it acks must not ack:
				// fail-stop, mirroring the manager's journal discipline.
				s.logf("replica: standby %q fail-stop: %v", s.opts.Name, err)
				s.markDetached(err.Error())
				_ = s.conn.Close()
				return
			}
			if _, err := s.out.write(frame{Type: frameAck, Batch: f.Batch}); err != nil {
				return
			}
		case frameDetach:
			s.logf("replica: standby %q detached by leader: %s", s.opts.Name, f.Reason)
			s.markDetached(f.Reason)
			return
		}
	}
}

func (s *Standby) markDetached(why string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.detached {
		s.detached = true
		s.detachWhy = why
		s.tel.Counter("replica.standby.detached").Inc()
	}
}

// watchLease fires leaderLost when no frame has arrived for a full TTL.
// A detached or closed standby never fires: a clean detach is not a
// takeover trigger.
func (s *Standby) watchLease() {
	defer s.wg.Done()
	streamEnded := false
	for {
		s.mu.Lock()
		ttl := s.ttl
		deadline := s.lastFrame.Add(ttl)
		now := transport.SystemClock.Now()
		expired := now.After(deadline) && !s.detached && !s.closed
		stop := s.detached || s.closed
		if expired {
			s.lostAt = now
		}
		s.mu.Unlock()
		if stop {
			return
		}
		if expired {
			s.logf("replica: standby %q lease expired (no frame for > %v); leader presumed dead", s.opts.Name, ttl)
			s.tel.Counter("replica.standby.lease_expiries").Inc()
			close(s.leaderLost)
			return
		}
		wait := deadline.Sub(now)
		if min := ttl / 8; wait < min {
			wait = min
		}
		timer := time.NewTimer(wait)
		if streamEnded {
			// No more frames can arrive; just sleep out the lease.
			select {
			case <-timer.C:
			case <-s.closing:
				timer.Stop()
			}
			continue
		}
		select {
		case <-timer.C:
		case <-s.done:
			// Stream ended; re-check immediately (detach vs death).
			streamEnded = true
			timer.Stop()
		case <-s.closing:
			timer.Stop()
		}
	}
}

// WaitLeaderLost blocks until the leader's lease expires, the standby is
// detached (an error — a detached standby must not take over), or ctx is
// done.
func (s *Standby) WaitLeaderLost(ctx context.Context) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.leaderLost:
			return nil
		case <-s.done:
			s.mu.Lock()
			detached, why := s.detached, s.detachWhy
			s.mu.Unlock()
			if detached {
				return fmt.Errorf("replica: standby detached (%s): stale, cold recovery required", why)
			}
			// Stream died without a detach; wait for the lease verdict.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-s.leaderLost:
				return nil
			}
		}
	}
}

// State returns a deep copy of the standby's current recovery state.
func (s *Standby) State() journal.State { return s.applier.State() }

// Eligible reports whether the standby may take over (attached, not
// closed).
func (s *Standby) Eligible() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.detached && !s.closed
}

// ElectionEpoch is the epoch this standby would commit on takeover.
func (s *Standby) ElectionEpoch() uint64 {
	return s.applier.State().LastEpoch + uint64(s.opts.Rank)
}

// Promote turns the standby into a manager ready to recover the dead
// leader's adaptation: it stops following the stream, constructs a
// manager over the standby's own journal under the election epoch
// (committing the fencing record — the only fsync on this path), and
// returns the manager plus the recovery state to pass to RecoverState.
// No journal replay happens anywhere on this path; that is the
// sub-millisecond difference from cold recovery.
func (s *Standby) Promote(ep transport.Endpoint, plan *planner.Planner, opts manager.Options) (*manager.Manager, journal.State, error) {
	s.mu.Lock()
	if s.detached {
		why := s.detachWhy
		s.mu.Unlock()
		return nil, journal.State{}, fmt.Errorf("replica: cannot promote detached standby (%s)", why)
	}
	if s.closed {
		s.mu.Unlock()
		return nil, journal.State{}, fmt.Errorf("replica: standby closed")
	}
	s.closed = true
	lostAt := s.lostAt
	s.mu.Unlock()
	close(s.closing)
	_ = s.conn.Close()

	if s.opts.Journal == nil {
		return nil, journal.State{}, fmt.Errorf("replica: promotion requires a standby journal")
	}
	st := s.applier.State()
	opts.Journal = s.opts.Journal
	opts.Epoch = st.LastEpoch + uint64(s.opts.Rank)
	mgr, err := manager.New(ep, plan, opts)
	if err != nil {
		return nil, journal.State{}, fmt.Errorf("replica: promote: %w", err)
	}
	s.tel.Counter("replica.takeovers").Inc()
	if !lostAt.IsZero() {
		s.tel.Histogram("replica.takeover.latency").Observe(transport.SystemClock.Now().Sub(lostAt))
	}
	s.logf("replica: standby %q promoted under epoch %d (state at seq %d)", s.opts.Name, opts.Epoch, s.applier.LastSeq())
	return mgr, st, nil
}

// Close stops following the stream without promoting.
func (s *Standby) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.closing)
	_ = s.conn.Close()
	s.wg.Wait()
	return nil
}
