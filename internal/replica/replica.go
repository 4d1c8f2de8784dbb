// Package replica adds hot-standby replication to the adaptation
// manager: the leader streams every committed journal record to one or
// more standby managers, which fold the records into an in-memory
// journal.State as they arrive. Takeover is then manager.RecoverState —
// Recover minus the file replay that dominates cold recovery — so a
// standby that observes the leader's lease expire can fence the dead
// epoch and re-drive the in-flight step in well under a millisecond of
// post-detection work.
//
// The safety argument leans entirely on machinery the journal already
// provides:
//
//   - Commit records replicate synchronously: the leader's Sync does not
//     return until every attached standby has applied (and durably
//     journaled) the batch, or been detached for missing its ack
//     deadline. A standby that is attached therefore holds the KindPoNR
//     record for any step whose resume wave could have been sent — the
//     recovery rule "no committed PoNR in the state → no resume was ever
//     sent → rollback is safe" stays sound for hot takeover.
//   - Election is by rank: standby rank r takes over under epoch
//     LastEpoch + r, so rival candidates commit DISTINCT epochs and
//     agent-side fencing totally orders them — same-epoch split brain is
//     structurally impossible, and the loser's every message is dropped.
//   - A detached (lagging) standby refuses promotion until it reattaches;
//     its stale cut may miss decisions, and cold recovery from the shared
//     log is the correct fallback for it.
//
// Replication lag is exported as replica.lag_records / replica.lag_bytes
// gauges and takeover latency as a replica.takeover.latency histogram;
// both ride the ordinary telemetry registry into FTDC captures and fleet
// rollups.
package replica

import (
	"fmt"
	"sync"

	"repro/internal/journal"
	"repro/internal/telemetry"
)

// Sink receives the leader's committed record batches. Implementations
// are the transport half of a standby (tcpSink) or an in-process applier
// (the explorer's deterministic standbys).
type Sink interface {
	// Commit delivers one committed batch and blocks until the standby
	// has applied it durably. The slice is borrowed for the call — the Tee
	// refills it with the next batch — so a sink that keeps records copies
	// them. Returning an error detaches the sink: the leader drops it and
	// continues, and the standby behind it loses hot takeover eligibility
	// until it reattaches.
	Commit(recs []journal.Record) error
	// Detach tells the sink it has been dropped (ack deadline missed,
	// journal closed). Best-effort; called once, after removal.
	Detach(reason string)
}

// Tee is the leader-side journal wrapper: a journal.Journal that forwards
// Append/Sync to the real log and, on each successful Sync, delivers the
// newly durable batch to every attached sink synchronously. Install it as
// the manager's Options.Journal; the manager's fail-stop discipline and
// commit points then drive replication for free.
type Tee struct {
	mu    sync.Mutex
	inner journal.Journal
	tail  []journal.Record // appended since the last successful Sync
	seq   uint64           // mirrors the inner journal's record numbering
	sinks []Sink
	tel   *telemetry.Registry
}

// NewTee wraps inner. The telemetry registry (nil-safe) receives the
// replication gauges and counters.
func NewTee(inner journal.Journal, tel *telemetry.Registry) (*Tee, error) {
	snap, err := inner.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("replica: tee snapshot: %w", err)
	}
	t := &Tee{inner: inner, tel: tel}
	if len(snap) > 0 {
		t.seq = snap[len(snap)-1].Seq
	}
	return t, nil
}

// Attach registers a sink and hands it the current durable log through
// deliver, atomically with respect to commits: no batch can slip between
// the snapshot and the attachment, so the sink sees every record exactly
// once (records are numbered; a reattaching standby dedups on Seq).
func (t *Tee) Attach(s Sink, deliver func(snap []journal.Record) error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap, err := t.inner.Snapshot()
	if err != nil {
		return fmt.Errorf("replica: attach snapshot: %w", err)
	}
	if err := deliver(snap); err != nil {
		return err
	}
	t.sinks = append(t.sinks, s)
	t.tel.Gauge("replica.standbys").Set(int64(len(t.sinks)))
	return nil
}

// Standbys reports how many sinks are attached.
func (t *Tee) Standbys() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sinks)
}

// Append implements journal.Journal. The record is buffered for the next
// Sync's replication batch, numbered in lockstep with the inner journal.
func (t *Tee) Append(rec journal.Record) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	//safeadaptvet:allow locksend -- t.mu IS the journal serializer here: it orders appends against the sync-time replication fan-out so a standby can never observe a batch that interleaves with an append; the inner backend never calls back into the Tee
	if err := t.inner.Append(rec); err != nil {
		return err
	}
	t.seq++
	rec.Seq = t.seq
	t.tail = append(t.tail, rec)
	return nil
}

// Sync implements journal.Journal: make the tail durable locally FIRST,
// then replicate it. The ordering is what keeps every standby a prefix of
// the leader's durable log — a crash between the fsync and the fan-out
// loses only replication, never durability, and the commit has not been
// acknowledged to the manager yet, so no message depending on it is on
// the wire. A sink that fails or misses its deadline is detached (with a
// detach notice) rather than blocking the adaptation forever.
func (t *Tee) Sync() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	//safeadaptvet:allow locksend -- t.mu IS the journal serializer here: holding it across fsync + synchronous sink fan-out is what makes "Sync returned nil => every attached standby holds the batch" true; sinks are replication channels, not protocol transports, and never call back into the Tee
	if err := t.inner.Sync(); err != nil {
		// The inner backend may have discarded the unsynced tail (the
		// in-memory backend's mid-fsync fault does); drop our copy in
		// lockstep so nothing undurable is ever replicated.
		t.seq -= uint64(len(t.tail))
		t.tail = t.tail[:0]
		return err
	}
	batch := t.tail
	t.tail = batch[:0] // refilled only after every Commit below has returned: t.mu is held throughout
	if len(batch) == 0 || len(t.sinks) == 0 {
		return nil
	}
	t.tel.Gauge("replica.lag_records").Set(int64(len(batch)))
	commitStart := len(t.sinks)
	live := t.sinks[:0]
	for _, s := range t.sinks {
		if err := s.Commit(batch); err != nil {
			t.tel.Counter("replica.detachments").Inc()
			s.Detach(fmt.Sprintf("commit failed: %v", err))
			continue
		}
		live = append(live, s)
	}
	t.sinks = live
	t.tel.Gauge("replica.lag_records").Set(0)
	t.tel.Counter("replica.commits").Inc()
	t.tel.Counter("replica.records_replicated").Add(int64(len(batch) * len(live)))
	if len(live) != commitStart {
		t.tel.Gauge("replica.standbys").Set(int64(len(live)))
	}
	return nil
}

// Snapshot implements journal.Journal.
func (t *Tee) Snapshot() ([]journal.Record, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inner.Snapshot()
}

// Close implements journal.Journal: detach every sink, then close the
// inner log.
func (t *Tee) Close() error {
	t.mu.Lock()
	sinks := t.sinks
	t.sinks = nil
	t.mu.Unlock()
	for _, s := range sinks {
		s.Detach("journal closed")
	}
	t.tel.Gauge("replica.standbys").Set(0)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inner.Close()
}

var _ journal.Journal = (*Tee)(nil)

// Applier is the standby-side state machine: it folds streamed records
// into a journal.State incrementally (journal.State.Apply is the same
// fold Replay runs over a file), deduplicating on record sequence so a
// snapshot overlapping an earlier stream position applies exactly once.
type Applier struct {
	mu      sync.Mutex
	st      journal.State
	lastSeq uint64
	records int
}

// Apply folds every record with Seq above the high-water mark and returns
// how many were new.
func (a *Applier) Apply(recs []journal.Record) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	applied := 0
	for _, r := range recs {
		if r.Seq <= a.lastSeq {
			continue
		}
		a.st.Apply(r)
		a.lastSeq = r.Seq
		a.records++
		applied++
	}
	return applied
}

// State returns a deep copy of the current recovery state — the takeover
// candidate's starting point, safe to use while the stream keeps applying.
func (a *Applier) State() journal.State {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.st.Clone()
}

// LastSeq returns the highest record sequence applied.
func (a *Applier) LastSeq() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastSeq
}

// Records returns how many records have been applied in total.
func (a *Applier) Records() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.records
}
