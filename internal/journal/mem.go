package journal

import (
	"fmt"
	"sync"
)

// Mem is the deterministic in-memory journal backend used by the
// explorer, netsim scenarios, and the crash-torture tests. It carries two
// fault hooks that simulate the manager process dying:
//
//   - CrashAfterAppends(n): the (n+1)th Append returns ErrCrashed without
//     recording — death exactly at a record boundary.
//   - FailNextSync(): the next Sync returns ErrCrashed AND discards every
//     record appended since the last successful Sync — death mid-fsync,
//     where the OS never persisted the tail.
//
// An arbitrary AppendHook can be installed instead, for choice-driven
// crash injection (the explorer consults its scheduler at every record
// boundary).
type Mem struct {
	mu     sync.Mutex
	recs   []Record // durable records (survived the last Sync)
	tail   []Record // appended but not yet synced
	seq    uint64
	closed bool

	crashAfter   int // crash once this many appends have succeeded; <0 disabled
	failNextSync bool
	appends      int

	// AppendHook, when non-nil, runs before each append; returning an
	// error aborts the append with it (ErrCrashed simulates death at this
	// record boundary). Set before use; not synchronized against Append.
	AppendHook func(rec Record) error
}

// NewMem returns an empty in-memory journal with no faults armed.
func NewMem() *Mem {
	return &Mem{crashAfter: -1}
}

// CrashAfterAppends arms the crash hook: the (n+1)th Append (counting
// from the journal's creation) fails with ErrCrashed. n < 0 disarms.
func (j *Mem) CrashAfterAppends(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.crashAfter = n
}

// FailNextSync arms the mid-fsync crash: the next Sync fails with
// ErrCrashed and the unsynced tail is lost, as if the OS never wrote it.
func (j *Mem) FailNextSync() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.failNextSync = true
}

// Appends reports how many appends have succeeded — the number of record
// boundaries a crash sweep can inject at.
func (j *Mem) Appends() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends
}

// Unsynced returns a copy of the records appended since the last
// successful Sync — what a crash at this instant would lose.
func (j *Mem) Unsynced() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Record(nil), j.tail...)
}

// Append implements Journal.
func (j *Mem) Append(rec Record) error {
	if hook := j.AppendHook; hook != nil {
		if err := hook(rec); err != nil {
			return err
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	if j.crashAfter >= 0 && j.appends >= j.crashAfter {
		return ErrCrashed
	}
	j.seq++
	rec.Seq = j.seq
	j.tail = append(j.tail, rec)
	j.appends++
	return nil
}

// Sync implements Journal: promote the tail to durable, or lose it if the
// mid-fsync fault is armed.
func (j *Mem) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	if j.failNextSync {
		j.failNextSync = false
		// The tail never reached the disk: a recovering manager reads only
		// the durable prefix, exactly like a torn file tail.
		j.seq -= uint64(len(j.tail))
		j.appends -= len(j.tail)
		j.tail = nil
		return ErrCrashed
	}
	j.recs = append(j.recs, j.tail...)
	j.tail = nil
	return nil
}

// Snapshot implements Journal: only durable (synced) records are
// returned — recovery must not see what an fsync never persisted. Note
// the live manager never reads its own journal, so this models the
// post-crash reader.
func (j *Mem) Snapshot() ([]Record, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Record, len(j.recs))
	copy(out, j.recs)
	return out, nil
}

// Close implements Journal.
func (j *Mem) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.closed {
		j.recs = append(j.recs, j.tail...)
		j.tail = nil
		j.closed = true
	}
	return nil
}

// Reopen returns the journal to service after a simulated crash: faults
// are disarmed and the unsynced tail is discarded (it "never hit the
// disk"), leaving exactly what a recovering manager would read from a
// real file. The same Mem instance then serves the recovered manager's
// appends.
func (j *Mem) Reopen() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed = false
	j.crashAfter = -1
	j.failNextSync = false
	j.AppendHook = nil
	j.seq -= uint64(len(j.tail))
	j.appends -= len(j.tail)
	j.tail = nil
}

var _ Journal = (*Mem)(nil)
