// Package journal provides the adaptation manager's write-ahead log: an
// append-only, checksummed record of every decision the manager takes
// while coordinating an adaptation — plan chosen, step started, per-wave
// acknowledgements, point of no return crossed, rollback decided — durable
// enough that a manager that crashes mid-adaptation can be replaced by a
// new one that replays the log and completes or rolls back the
// interrupted adaptation (manager.Recover).
//
// Two backends are provided. The file backend frames each record as
// length + CRC32 + a versioned binary body (codec.go), writes and fsyncs
// the records appended since the last commit as one group, and tolerates
// a torn tail on reopen (the classic WAL discipline: a record is in the
// log iff its checksum verifies). The in-memory backend is deterministic and
// carries crash fault hooks, so the explorer and the crash-torture tests
// can kill the manager at every record boundary — and once mid-fsync —
// without touching a disk.
package journal

import (
	"errors"
	"fmt"

	"repro/internal/protocol"
)

// Kind classifies a journal record.
type Kind string

// Record kinds, in the order they appear during a healthy adaptation.
// "Committed" marks the kinds the manager syncs on the spot because a
// message send or Execute's return depends on them; every other record
// becomes durable with the next committed one (manager.Manager.journal
// states the rule).
const (
	// KindEpoch marks a manager (re)starting under a new epoch. Committed.
	KindEpoch Kind = "epoch"
	// KindAdaptBegin opens an adaptation request (source → target).
	KindAdaptBegin Kind = "adapt-begin"
	// KindPlan records the chosen adaptation path.
	KindPlan Kind = "plan"
	// KindStepBegin opens one adaptation step; the full protocol step is
	// stored so recovery can re-send any in-flight command. Committed.
	KindStepBegin Kind = "step-begin"
	// KindWave marks a protocol wave starting (reset/adapt/resume).
	KindWave Kind = "wave"
	// KindAck records one per-process acknowledgement (reset done, adapt
	// done, resume done, rollback done).
	KindAck Kind = "ack"
	// KindPoNR marks the point of no return: it is committed durably
	// BEFORE the first resume is sent, so a recovering manager knows
	// whether the step must run to completion. Committed.
	KindPoNR Kind = "ponr"
	// KindRollback records the decision to roll the step back, committed
	// before any rollback command is sent. Committed.
	KindRollback Kind = "rollback"
	// KindStepEnd closes a step with its outcome.
	KindStepEnd Kind = "step-end"
	// KindAdaptEnd closes the adaptation (completed, returned-to-source,
	// user-intervention, aborted). Committed.
	KindAdaptEnd Kind = "adapt-end"
)

// Record is one journal entry. Seq is assigned by the journal on append
// and is strictly increasing within a file.
type Record struct {
	Seq   uint64 `json:"seq"`
	Epoch uint64 `json:"epoch"`
	Kind  Kind   `json:"kind"`
	// Step is the full protocol step for KindStepBegin (ops, participants,
	// reset phases — everything recovery needs to re-send commands); other
	// step-scoped records carry only its identity.
	Step protocol.Step `json:"step,omitempty"`
	// Wave is "reset", "adapt", "resume" or "rollback" on KindWave/KindAck.
	Wave string `json:"wave,omitempty"`
	// Process is the acknowledging process on KindAck.
	Process string `json:"process,omitempty"`
	// Agents, on a KindAck written for an aggregated fleet acknowledgement,
	// lists the agents the coordinator's single upstream ack covered
	// (Process is then the coordinator). Replay credits every listed agent,
	// so recovery is oblivious to whether an ack arrived flat or batched.
	Agents []string `json:"agents,omitempty"`
	// Source and Target are configuration bit vectors on KindAdaptBegin.
	Source string `json:"source,omitempty"`
	Target string `json:"target,omitempty"`
	// Outcome is the step or adaptation outcome on KindStepEnd/KindAdaptEnd.
	Outcome string `json:"outcome,omitempty"`
	// Detail carries free-form context (the plan string, failure reasons).
	Detail string `json:"detail,omitempty"`
}

// String renders the record compactly for journal dumps.
func (r Record) String() string {
	s := fmt.Sprintf("#%d e%d %s", r.Seq, r.Epoch, r.Kind)
	if r.Step.ActionID != "" {
		s += " step " + r.Step.ActionID + " " + r.Step.Key()
	}
	if r.Wave != "" {
		s += " wave=" + r.Wave
	}
	if r.Process != "" {
		s += " proc=" + r.Process
	}
	if len(r.Agents) > 0 {
		s += fmt.Sprintf(" agents=%v", r.Agents)
	}
	if r.Source != "" || r.Target != "" {
		s += " " + r.Source + "->" + r.Target
	}
	if r.Outcome != "" {
		s += " outcome=" + r.Outcome
	}
	if r.Detail != "" {
		s += ": " + r.Detail
	}
	return s
}

// ErrCrashed is the sentinel the in-memory backend's fault hooks return
// to simulate the manager process dying at a record boundary. The manager
// treats any journal error as fatal (fail-stop: a manager that cannot log
// its decisions must not keep making them), so returning ErrCrashed from
// Append or Sync kills the simulated manager exactly there.
var ErrCrashed = errors.New("journal: simulated crash")

// Journal is the write-ahead log interface the manager records into.
// Implementations must assign Seq on Append.
type Journal interface {
	// Append adds one record to the log. The record is not durable until
	// the next successful Sync.
	Append(rec Record) error
	// Sync makes every appended record durable (one write + fsync of the
	// group for the file backend). A commit is Append+Sync.
	Sync() error
	// Snapshot returns a copy of every record currently in the log,
	// including records loaded from disk on open. It is a cold path: the
	// file backend reads the log back from disk.
	Snapshot() ([]Record, error)
	// Close releases the journal. A final Sync is attempted.
	Close() error
}

// State is the summary Replay distills from a log: what the last manager
// was doing when it stopped writing, and everything a recovering manager
// needs to finish the job.
type State struct {
	// LastEpoch is the highest epoch recorded; a recovering manager must
	// start at LastEpoch+1.
	LastEpoch uint64
	// InFlight reports an adaptation that began and never ended.
	InFlight bool
	// Source and Target are the in-flight adaptation's endpoints (bit
	// vectors).
	Source, Target string
	// Plan is the recorded path description, for diagnostics.
	Plan string
	// Current is the configuration bit vector the system had reached when
	// the log ends: the source, advanced by every completed step.
	Current string
	// Step is the in-flight step (begun, not ended), if any.
	Step *protocol.Step
	// LastStep is the most recent step ever begun, kept after the step
	// ends. Recovery probes its participants as a freshness check: if any
	// of them reports work on a later attempt than LastAttempt, a rival
	// manager incarnation has already driven past this log and the
	// candidate must stand down instead of re-driving stale steps.
	LastStep *protocol.Step
	// LastAttempt is the highest step attempt number journaled. A
	// recovering manager continues numbering above it, so step attempts
	// stay unique across manager incarnations of one adaptation.
	LastAttempt int
	// PastPoNR reports that the in-flight step's point of no return was
	// committed: recovery must drive the step forward, never back.
	PastPoNR bool
	// RollbackDecided reports that a rollback for the in-flight step was
	// committed: the crash happened mid-rollback-wave and recovery re-sends
	// rollback (idempotent on the agents).
	RollbackDecided bool
	// Acked maps wave → the processes whose acknowledgement of the
	// in-flight step was journaled, e.g. Acked["resume"]. A new step empties
	// the sets in place, so a wave an earlier step was acknowledged on may
	// map to an empty set.
	Acked map[string]map[string]bool
}

// Apply folds one record into the state. Replay is a left fold of Apply
// over the log, which makes the state prefix-monotone by construction: a
// hot standby applying records as they stream in holds, at every record
// boundary, exactly the state a cold Replay of that prefix would produce —
// the property that lets takeover skip file replay entirely. Apply reuses
// the acknowledgement sets it holds; Clone is the copy that does not
// change under a later Apply.
func (st *State) Apply(r Record) {
	if st.Acked == nil {
		st.Acked = make(map[string]map[string]bool)
	}
	if r.Epoch > st.LastEpoch {
		st.LastEpoch = r.Epoch
	}
	if r.Step.Attempt > st.LastAttempt {
		st.LastAttempt = r.Step.Attempt
	}
	switch r.Kind {
	case KindAdaptBegin:
		st.InFlight = true
		st.Source, st.Target = r.Source, r.Target
		st.Current = r.Source
		st.Step = nil
		st.PastPoNR = false
		st.RollbackDecided = false
		st.Plan = ""
		st.clearAcks()
	case KindPlan:
		st.Plan = r.Detail
	case KindStepBegin:
		step := r.Step
		st.Step = &step
		st.LastStep = &step
		st.PastPoNR = false
		st.RollbackDecided = false
		st.clearAcks()
	case KindAck:
		if st.Step != nil && sameStep(r.Step, *st.Step) {
			if st.Acked[r.Wave] == nil {
				st.Acked[r.Wave] = make(map[string]bool)
			}
			if len(r.Agents) > 0 {
				// Aggregated coordinator ack: credit the covered shard.
				for _, a := range r.Agents {
					st.Acked[r.Wave][a] = true
				}
			} else {
				st.Acked[r.Wave][r.Process] = true
			}
		}
	case KindPoNR:
		if st.Step != nil && sameStep(r.Step, *st.Step) {
			st.PastPoNR = true
		}
	case KindRollback:
		if st.Step != nil && sameStep(r.Step, *st.Step) {
			st.RollbackDecided = true
		}
	case KindStepEnd:
		if st.Step != nil && sameStep(r.Step, *st.Step) {
			switch r.Outcome {
			case "rolled back":
				// The rollback guarantee restores the step's source.
				st.Current = st.Step.FromVector
			default:
				// completed — or "failed" past the point of no return,
				// where every in-action was applied (the adapt-done
				// barrier passed) and the structure is at the target.
				st.Current = st.Step.ToVector
			}
			st.Step = nil
			st.PastPoNR = false
			st.RollbackDecided = false
		}
	case KindAdaptEnd:
		st.InFlight = false
		st.Step = nil
		st.PastPoNR = false
		st.RollbackDecided = false
	}
}

// clearAcks forgets every acknowledgement, keeping the sets for the next
// step's.
func (st *State) clearAcks() {
	for _, procs := range st.Acked {
		clear(procs)
	}
}

// Clone returns a deep copy of the state, so a takeover candidate can fork
// a standby's live state without racing its stream-applier.
func (st State) Clone() State {
	out := st
	if st.Step != nil {
		step := *st.Step
		out.Step = &step
	}
	if st.LastStep != nil {
		step := *st.LastStep
		out.LastStep = &step
	}
	out.Acked = make(map[string]map[string]bool, len(st.Acked))
	for wave, procs := range st.Acked {
		m := make(map[string]bool, len(procs))
		for p, ok := range procs {
			m[p] = ok
		}
		out.Acked[wave] = m
	}
	return out
}

// Replay folds a record sequence into the recovery State. It is total: any
// prefix of a valid log (which is exactly what a crash leaves) replays
// without error.
func Replay(recs []Record) State {
	st := State{Acked: make(map[string]map[string]bool)}
	for _, r := range recs {
		st.Apply(r)
	}
	return st
}

func sameStep(a, b protocol.Step) bool {
	return a.PathIndex == b.PathIndex && a.Attempt == b.Attempt && a.ActionID == b.ActionID
}
