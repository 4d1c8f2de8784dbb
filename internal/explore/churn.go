package explore

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"

	"repro/internal/journal"
	"repro/internal/manager"
	"repro/internal/protocol"
	"repro/internal/replica"
	"repro/internal/simnet"
)

// churnPlan configures leader-churn injection for one execution: the
// manager journals through a replica.Tee feeding two in-process standbys,
// and dies at the after-th journal record boundary (or mid-fsync with
// midSync). Takeover is then hot: a standby is promoted under its rank's
// election epoch and recovers via RecoverState from its streamed state,
// with no journal replay. The double field layers a second, racing
// takeover candidate on top.
type churnPlan struct {
	after   int
	midSync bool
	double  int
}

const (
	// doubleNone promotes only the rank-1 standby.
	doubleNone = iota
	// doubleFencedLoser promotes the rank-2 standby first (it wins the
	// race under the higher election epoch) and then lets the rank-1
	// candidate attempt its own takeover: every message the loser sends
	// carries the lower epoch and must be fenced at the agents, so it can
	// complete nothing.
	doubleFencedLoser
	// doubleStaleRedrive promotes the rank-1 standby, lets it finish the
	// recovery, and then promotes the rank-2 standby from its own cut —
	// which froze at the original crash and is now stale. Its election
	// epoch still exceeds the first winner's, so the agents follow it; its
	// re-drive of work the first winner already did must converge through
	// probe evidence and idempotent re-acks without ever rolling back a
	// resumed step.
	doubleStaleRedrive
)

// simStandby is the explorer's in-process hot standby: a replica.Sink
// whose Commit folds each replicated batch into an Applier (the in-memory
// recovery state) and appends it durably to the standby's own journal
// before acknowledging — the same discipline as the TCP standby, run
// synchronously on the scheduler goroutine.
type simStandby struct {
	name    string
	rank    int
	applier *replica.Applier
	jrn     *journal.Mem
}

// Commit implements replica.Sink.
func (s *simStandby) Commit(recs []journal.Record) error {
	before := s.applier.LastSeq()
	s.applier.Apply(recs)
	for _, r := range recs {
		if r.Seq <= before {
			continue
		}
		if err := s.jrn.Append(r); err != nil {
			return err
		}
	}
	return s.jrn.Sync()
}

// Detach implements replica.Sink.
func (s *simStandby) Detach(string) {}

// setupChurn interposes the replication plane: the leader's journal is
// wrapped in a replica.Tee with two attached standbys (ranks 1 and 2),
// and the leader crash is armed on the inner journal. Called before the
// first manager incarnation is built, so even the epoch record replicates.
func (e *execution) setupChurn(cp *churnPlan) error {
	e.churn = cp
	tee, err := replica.NewTee(e.journal, e.x.tel)
	if err != nil {
		return err
	}
	e.tee = tee
	for r := 1; r <= 2; r++ {
		s := &simStandby{
			name:    fmt.Sprintf("standby-%d", r),
			rank:    r,
			applier: &replica.Applier{},
			jrn:     journal.NewMem(),
		}
		if err := tee.Attach(s, s.Commit); err != nil {
			return err
		}
		e.standbys = append(e.standbys, s)
	}
	if cp.after > 0 {
		e.armCrash(crashPlan{after: cp.after, midSync: cp.midSync})
	}
	return nil
}

// takeover replaces cold crash recovery in churn mode: the leader is
// dead, its unread inbox died with its sockets, and one (or two racing)
// standbys promote themselves via RecoverState — Recover minus the
// journal replay. Every safety property stays fully armed throughout,
// plus the replication-specific ones: each standby's streamed state must
// equal a replay of the leader's durable log, and a lower-epoch takeover
// candidate must be fenced into total failure.
func (e *execution) takeover() (manager.Result, error) {
	e.logf("fault: leader crashes at a journal record boundary (%d records appended); hot takeover", e.journal.Appends())
	e.deadMgrs = append(e.deadMgrs, e.mgr)
	e.purgePendingTo(protocol.ManagerName)
	e.expireLeaseChoices()
	e.checkReplicaDivergence()

	var first, second *simStandby
	switch e.churn.double {
	case doubleFencedLoser:
		first, second = e.standbys[1], e.standbys[0]
	case doubleStaleRedrive:
		first, second = e.standbys[0], e.standbys[1]
	default:
		first = e.standbys[0]
	}

	mgr, st := e.promote(first)
	e.mgr = mgr
	res, err := e.driveTakenOver(mgr, st)

	switch e.churn.double {
	case doubleFencedLoser:
		// The slower, lower-ranked candidate wakes up after the winner is
		// done. Its probes, waves and stragglers all carry the lower epoch;
		// the agents must drop every one of them, and it must not complete
		// (or roll back) anything.
		loser, lst := e.promote(second)
		e.deadMgrs = append(e.deadMgrs, loser)
		lres, lerr := loser.RecoverState(context.Background(), lst)
		if lerr == nil && (lres.Completed || lres.ReturnedToSource) {
			e.violate("fencing", fmt.Sprintf(
				"takeover candidate %s (rank %d) completed a recovery under a lower epoch than the standing winner — fencing failed",
				second.name, second.rank))
		} else {
			e.logf("takeover: fenced candidate %s failed as required (%v)", second.name, lerr)
		}
	case doubleStaleRedrive:
		// The higher-ranked candidate also promotes, later, from its cut
		// frozen at the original crash — stale with respect to everything
		// the first winner did. Its higher epoch makes the agents obey it,
		// so fencing cannot stop it; the recovery staleness check must:
		// its probes report agent work on later attempts than its cut ever
		// journaled, and it stands down without re-driving anything. It
		// never resubmits either — resubmission is an operator action, and
		// the operator's request already rode the first winner. Only when
		// the first winner actually failed to advance past the cut may the
		// re-driver find fresh state and legitimately finish the job.
		redrive, rst := e.promote(second)
		rres, rerr := redrive.RecoverState(context.Background(), rst)
		if rerr == nil && (rres.Completed || rres.ReturnedToSource) {
			e.deadMgrs = append(e.deadMgrs, mgr)
			e.mgr = redrive
			res, err = rres, rerr
			e.logf("takeover: candidate %s found its cut fresh and finished the recovery", second.name)
		} else {
			e.deadMgrs = append(e.deadMgrs, redrive)
			e.logf("takeover: stale candidate %s stood down (%v)", second.name, rerr)
		}
	}
	return res, err
}

// promote turns a standby into a manager incarnation: a fresh manager
// over the standby's own journal, fenced under election epoch
// LastEpoch + rank (distinct per rank, so racing candidates can never
// share an epoch). The recovery state is the standby's streamed cut.
func (e *execution) promote(s *simStandby) (*manager.Manager, journal.State) {
	st := s.applier.State()
	epoch := st.LastEpoch + uint64(s.rank)
	mgr, err := e.newManagerOver(s.jrn, epoch)
	if err != nil {
		// Construction succeeded for the leader in newExecution; unreachable.
		panic(fmt.Sprintf("explore: promote standby %s: %v", s.name, err))
	}
	e.takeovers++
	e.logf("takeover: standby %s (rank %d) promoted under epoch %d (streamed state, no replay)", s.name, s.rank, epoch)
	return mgr, st
}

// driveTakenOver runs a promoted standby's recovery from its streamed
// state and, mirroring recoverManager, resubmits the original request if
// the cut predates the adaptation's first committed record.
func (e *execution) driveTakenOver(mgr *manager.Manager, st journal.State) (manager.Result, error) {
	res, err := mgr.RecoverState(context.Background(), st)
	if err == nil && !res.Completed && !res.ReturnedToSource {
		e.logf("takeover: streamed state shows no in-flight work; resubmitting the request")
		res, err = mgr.Execute(e.m.Source, e.m.Target)
	}
	return res, err
}

// checkReplicaDivergence asserts the replication invariant at the moment
// of takeover: every attached standby's streamed state must equal a cold
// replay of the leader's durable log, and its own journal must hold
// exactly that log — byte-for-byte the same records, in the same order.
// (Unsynced leader records are invisible to both sides by construction:
// the Tee replicates only after a successful Sync, and Snapshot returns
// only the durable prefix.)
func (e *execution) checkReplicaDivergence() {
	durable, err := e.journal.Snapshot()
	if err != nil {
		panic(fmt.Sprintf("explore: leader snapshot: %v", err))
	}
	want := journal.Replay(durable)
	for _, s := range e.standbys {
		got := s.applier.State()
		if !statesEqual(got, want) {
			e.violate("replica-divergence", fmt.Sprintf(
				"standby %s streamed state diverged from a replay of the leader's durable log at takeover: got %+v, want %+v",
				s.name, got, want))
		}
		mirror, merr := s.jrn.Snapshot()
		if merr != nil {
			panic(fmt.Sprintf("explore: standby snapshot: %v", merr))
		}
		if !reflect.DeepEqual(normalizeRecords(mirror), normalizeRecords(durable)) {
			e.violate("replica-divergence", fmt.Sprintf(
				"standby %s durable journal diverged from the leader's (%d records vs %d)",
				s.name, len(mirror), len(durable)))
		}
	}
}

// statesEqual compares two recovery states, treating a nil Acked map as
// empty (Replay always allocates one; an Applier that saw zero records
// has not).
func statesEqual(a, b journal.State) bool {
	if a.Acked == nil {
		a.Acked = make(map[string]map[string]bool)
	}
	if b.Acked == nil {
		b.Acked = make(map[string]map[string]bool)
	}
	return reflect.DeepEqual(a, b)
}

// normalizeRecords strips empty-vs-nil slice differences for comparison.
func normalizeRecords(recs []journal.Record) []journal.Record {
	if len(recs) == 0 {
		return nil
	}
	return recs
}

// newManagerOver builds a manager incarnation over an explicit journal
// and (when non-zero) an explicit fencing epoch — the promotion path.
// newManager delegates here for the leader itself.
func (e *execution) newManagerOver(jrn journal.Journal, epoch uint64) (*manager.Manager, error) {
	// The manager's port is a transport.BatchSender, like the root mux hub:
	// in fleet mode a whole wave leaves as one MsgBatch envelope per
	// top-level coordinator link; flat, every command is its own frame.
	ep := simnet.BatchPort{Port: e.net.Down(protocol.ManagerName)}
	return manager.New(ep, e.x.plan, manager.Options{
		StepTimeout:   e.x.opts.StepTimeout,
		ResumeRetries: e.x.opts.ResumeRetries,
		ResetPhases:   e.m.ResetPhases,
		Clock:         e.clock,
		Journal:       jrn,
		Epoch:         epoch,
	})
}

// ChurnSweep model-checks hot-standby takeover under leader churn. The
// leader journals through the replication tee into two synchronously
// attached standbys; the sweep then, for every journal record boundary k
// of the fault-free happy path, kills the leader at k and drives:
//
//   - the happy-path schedule with a single rank-1 takeover;
//   - the same with the crash falling mid-fsync, so the torn tail exists
//     nowhere — neither on the leader's disk nor in any standby;
//   - a double takeover where the rank-2 candidate wins first and the
//     rank-1 candidate's later attempt must be fenced into total failure;
//   - a double takeover where the rank-1 candidate finishes first and the
//     rank-2 candidate then re-drives from its stale crash-time cut under
//     a higher epoch, which must converge idempotently;
//   - perPoint fuzzed schedules (single and stale-re-drive takeovers)
//     layering message loss, timeouts, fail-to-reset and lease expiry
//     over the churn.
//
// On top of the standing safety properties, every takeover checks the
// replication invariant: each standby's streamed state equals a cold
// replay of the leader's durable log (kind "replica-divergence"), and a
// lower-epoch candidate never completes anything (kind "fencing").
func (x *Explorer) ChurnSweep(seed int64, perPoint int) (*Report, error) {
	rep := &Report{}
	// Measure the happy path's journal length over the full replication
	// plane; it must itself be clean, including the divergence check.
	probe, err := newExecutionChurn(x, &replayChooser{}, &churnPlan{})
	if err != nil {
		return nil, err
	}
	probe.run()
	probe.checkReplicaDivergence()
	rep.Schedules++
	if len(probe.violations) > 0 {
		rep.Violations = append(rep.Violations, probe.violations...)
		rep.Truncated = true
		return rep, nil
	}
	boundaries := probe.journal.Appends()
	for k := 1; k <= boundaries; k++ {
		plans := []*churnPlan{
			{after: k},
			{after: k, midSync: true},
			{after: k, double: doubleFencedLoser},
			{after: k, double: doubleStaleRedrive},
		}
		for _, cp := range plans {
			if err := x.runChurn(&replayChooser{}, rep, cp); err != nil {
				return rep, err
			}
		}
		for i := 0; i < perPoint; i++ {
			ch := &randChooser{rng: rand.New(rand.NewSource(seed + int64(k)*1009 + int64(i)))}
			if err := x.runChurn(ch, rep, &churnPlan{after: k}); err != nil {
				return rep, err
			}
		}
		for i := 0; i < perPoint; i++ {
			ch := &randChooser{rng: rand.New(rand.NewSource(seed + int64(k)*1009 + 500009 + int64(i)))}
			if err := x.runChurn(ch, rep, &churnPlan{after: k, double: doubleStaleRedrive}); err != nil {
				return rep, err
			}
		}
		if len(rep.Violations) >= x.opts.MaxViolations || rep.Schedules >= x.opts.MaxSchedules {
			rep.Truncated = true
			return rep, nil
		}
	}
	return rep, nil
}

func (x *Explorer) runChurn(ch chooser, rep *Report, cp *churnPlan) error {
	e, err := newExecutionChurn(x, ch, cp)
	if err != nil {
		return err
	}
	e.run()
	rep.Schedules++
	rep.States += len(ch.taken())
	rep.Crashes += e.mgrCrashes
	rep.Takeovers += e.takeovers
	rep.Violations = append(rep.Violations, e.violations...)
	x.tel.Counter("explore.schedules").Inc()
	x.tel.Counter("explore.states").Add(int64(len(ch.taken())))
	x.tel.Counter("explore.takeovers").Add(int64(e.takeovers))
	x.tel.Counter("explore.violations").Add(int64(len(e.violations)))
	return nil
}
