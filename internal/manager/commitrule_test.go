package manager_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/manager"
	"repro/internal/model"
	"repro/internal/paper"
	"repro/internal/planner"
	"repro/internal/protocol"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// syncCounter counts the commits a manager makes on an in-memory journal.
type syncCounter struct {
	*journal.Mem
	syncs int
}

func (j *syncCounter) Sync() error {
	j.syncs++
	return j.Mem.Sync()
}

// sendGate is the manager's endpoint with the commit rule checked at every
// send: whatever the journal holds unsynced at that instant must be
// records no send depends on — wave markers and acknowledgements, which
// recovery never reads a decision from and which were never committed on
// their own. Anything else in the tail (a step-begin, a point of no
// return, a rollback decision, a step-end, a plan) would be a message on
// the wire ahead of the log.
type sendGate struct {
	transport.Endpoint
	t     *testing.T
	jr    *journal.Mem
	sends int
}

func (g *sendGate) Send(msg protocol.Message) error {
	g.sends++
	for _, rec := range g.jr.Unsynced() {
		if rec.Kind != journal.KindWave && rec.Kind != journal.KindAck {
			g.t.Errorf("%s to %s sent while the journal holds unsynced: %s", msg.Type, msg.To, rec)
		}
	}
	return g.Endpoint.Send(msg)
}

// TestCommitRule drives the manager down every branch of its recovery
// ladder over an in-memory journal and checks the group-commit rule from
// outside: no message leaves ahead of a record it depends on, and Execute
// never returns with an unsynced tail.
func TestCommitRule(t *testing.T) {
	paperPlan, paperSrc, paperTgt := paperPlanner(t)
	legPlan, legReg := twoLegPlanner(t)
	legSrc, legTgt := legReg.MustConfigOf("A", "C"), legReg.MustConfigOf("B", "D")

	cases := []struct {
		name      string
		plan      *planner.Planner
		src, tgt  model.Config
		overrides map[string]agentProc
		arrange   func(s *stack)
		cancel    time.Duration // cancel Execute's context after this long
		check     func(t *testing.T, res manager.Result, err error)
		// appends and syncs, when set, are the exact journal traffic of
		// the Execute call.
		appends, syncs int
	}{
		{
			// adapt-begin + plan + step-begin(1) are one commit, each
			// step-end rides the next step-begin, the last rides adapt-end:
			// five step-begins, five points of no return, one adapt-end.
			name: "happy path", plan: paperPlan, src: paperSrc, tgt: paperTgt,
			check: func(t *testing.T, res manager.Result, err error) {
				if err != nil || !res.Completed || len(res.Steps) != 5 {
					t.Fatalf("Execute: %v, %+v", err, res)
				}
			},
			appends: 48, syncs: 11,
		},
		{
			name: "reset failure, rollback, retry", plan: paperPlan, src: paperSrc, tgt: paperTgt,
			arrange: func(s *stack) { s.scripted(t, paper.ProcessHandheld).failReset["A2"] = 1 },
			check: func(t *testing.T, res manager.Result, err error) {
				if err != nil || !res.Completed || res.Steps[0].Outcome != "rolled back" {
					t.Fatalf("Execute: %v, %+v", err, res)
				}
			},
		},
		{
			name: "alternative path", plan: paperPlan, src: paperSrc, tgt: paperTgt,
			arrange: func(s *stack) { s.scripted(t, paper.ProcessHandheld).failReset["A2"] = -1 },
			check: func(t *testing.T, res manager.Result, err error) {
				if err != nil || !res.Completed {
					t.Fatalf("Execute: %v, %+v", err, res)
				}
			},
		},
		{
			name: "return to source", plan: legPlan, src: legSrc, tgt: legTgt,
			arrange: func(s *stack) { s.scripted(t, "p2").failReset["F2"] = -1 },
			check: func(t *testing.T, res manager.Result, err error) {
				if err != nil || !res.ReturnedToSource {
					t.Fatalf("Execute: %v, %+v", err, res)
				}
			},
		},
		{
			name: "cancellation mid reset wave", plan: paperPlan, src: paperSrc, tgt: paperTgt,
			overrides: map[string]agentProc{
				paper.ProcessHandheld: &slowResetProc{scriptedProc: newScriptedProc(), delay: 300 * time.Millisecond},
			},
			cancel: 50 * time.Millisecond,
			check: func(t *testing.T, res manager.Result, err error) {
				if !errors.Is(err, context.Canceled) || res.Completed {
					t.Fatalf("Execute: %v, %+v", err, res)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jr := &syncCounter{Mem: journal.NewMem()}
			gate := &sendGate{t: t, jr: jr.Mem}
			opts := manager.Options{Journal: jr, Clock: simnet.NewManualClock(time.Unix(0, 0))}
			if tc.cancel > 0 {
				opts.StepTimeout = time.Second
			}
			s := newStackOver(t, tc.plan, opts, tc.overrides, func(ep transport.Endpoint) transport.Endpoint {
				gate.Endpoint = ep
				return gate
			})
			if tc.arrange != nil {
				tc.arrange(s)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel > 0 {
				time.AfterFunc(tc.cancel, cancel)
			}
			appends, syncs := jr.Appends(), jr.syncs

			res, err := s.mgr.ExecuteContext(ctx, tc.src, tc.tgt)
			tc.check(t, res, err)

			if gate.sends == 0 {
				t.Fatal("the gate saw no send")
			}
			if tail := jr.Unsynced(); len(tail) != 0 {
				t.Errorf("Execute returned with %d unsynced records, first: %s", len(tail), tail[0])
			}
			recs, _ := jr.Snapshot()
			if st := journal.Replay(recs); st.InFlight {
				t.Errorf("the durable log replays to an adaptation in flight: %+v", st)
			}
			if tc.appends != 0 {
				if got := jr.Appends() - appends; got != tc.appends {
					t.Errorf("%d appends, want %d", got, tc.appends)
				}
				if got := jr.syncs - syncs; got != tc.syncs {
					t.Errorf("%d syncs, want %d", got, tc.syncs)
				}
			}
		})
	}
}
