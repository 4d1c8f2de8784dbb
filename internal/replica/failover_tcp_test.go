package replica_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/agent"
	"repro/internal/journal"
	"repro/internal/manager"
	"repro/internal/paper"
	"repro/internal/planner"
	"repro/internal/protocol"
	"repro/internal/replica"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// trackingProc is a minimal LocalProcess that records which in-actions
// ran, so a failover test can prove the re-driven resume wave applied
// nothing twice.
type trackingProc struct {
	mu        sync.Mutex
	inActions []string
}

func (p *trackingProc) PreAction(protocol.Step, []action.Op) error { return nil }
func (p *trackingProc) Reset(context.Context, protocol.Step) error { return nil }
func (p *trackingProc) InAction(step protocol.Step, _ []action.Op) error {
	p.mu.Lock()
	p.inActions = append(p.inActions, step.ActionID)
	p.mu.Unlock()
	return nil
}
func (p *trackingProc) Resume(protocol.Step) error                      { return nil }
func (p *trackingProc) PostAction(protocol.Step, []action.Op) error     { return nil }
func (p *trackingProc) Rollback(protocol.Step, []action.Op, bool) error { return nil }

// leaderCrashJournal simulates the leader process dying at a chosen
// record boundary: from the trigger on, every append and sync fails.
// It sits UNDER the replication Tee, so replication stops exactly where
// local durability stops.
type leaderCrashJournal struct {
	inner   journal.Journal
	trigger func(journal.Record) bool

	mu   sync.Mutex
	dead bool
}

var errLeaderDeath = errors.New("simulated leader death")

func (c *leaderCrashJournal) Append(rec journal.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return errLeaderDeath
	}
	if c.trigger(rec) {
		c.dead = true
		return errLeaderDeath
	}
	return c.inner.Append(rec)
}

func (c *leaderCrashJournal) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return errLeaderDeath
	}
	return c.inner.Sync()
}

func (c *leaderCrashJournal) Snapshot() ([]journal.Record, error) { return c.inner.Snapshot() }
func (c *leaderCrashJournal) Close() error                        { return c.inner.Close() }

// TestTCPLeaderFailoverPastPointOfNoReturn is the hot-standby story end
// to end over real sockets: a leader manager replicating every commit to
// a TCP standby dies past the first step's point of no return; the
// standby detects the death by lease expiry, promotes WITHOUT any
// journal replay (its state was folded as the stream arrived), fences
// epoch 2, and completes the in-flight adaptation while the agents chase
// the new leader through the address ring. The post-detection
// takeover-ready time is the claim: well under the ~9.9 ms cold-recovery
// baseline, because the only work left is one fsync for the fencing
// record.
func TestTCPLeaderFailoverPastPointOfNoReturn(t *testing.T) {
	scenario, err := paper.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.New(scenario.Invariants, scenario.Actions)
	if err != nil {
		t.Fatal(err)
	}
	reg := plan.Registry()
	processOf := func(c string) string {
		p, _ := reg.ProcessOf(c)
		return p
	}
	// On CI, SAFEADAPT_JOURNAL_DIR persists both logs past the test so a
	// failing run uploads them as workflow artifacts.
	dir := t.TempDir()
	if base := os.Getenv("SAFEADAPT_JOURNAL_DIR"); base != "" {
		dir = filepath.Join(base, "leader-failover-tcp")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	leaderPath := filepath.Join(dir, "leader.journal")
	standbyPath := filepath.Join(dir, "standby.journal")
	tel := telemetry.NewRegistry()

	// Both manager endpoints exist up front; the agents' address ring
	// lists leader first, standby second, so the redial loop finds the
	// promoted standby within two probe delays of the leader dying.
	mgrEP1, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mgrEP1.Close() }()
	mgrEP2, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mgrEP2.Close() }()
	procs := make(map[string]*trackingProc)
	agents := make(map[string]*agent.Agent)
	for _, name := range reg.Processes() {
		// Each agent owns its ring: the leader is probed first, and after
		// the leader dies the redial loop rotates to the standby's address
		// without any out-of-band announcement.
		ring := transport.NewAddrRing(mgrEP1.Addr(), mgrEP2.Addr())
		ep, err := transport.DialReconnectingTCP(name, ring.Next, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		tp := &trackingProc{}
		ag, err := agent.New(name, ep, tp, agent.Options{
			ResetTimeout: 2 * time.Second,
			ProcessOf:    processOf,
		})
		if err != nil {
			t.Fatal(err)
		}
		go ag.Run()
		procs[name] = tp
		agents[name] = ag
		t.Cleanup(func() {
			ag.Close()
			_ = ep.Close()
		})
	}
	if err := mgrEP1.WaitForAgents(5*time.Second, reg.Processes()...); err != nil {
		t.Fatal(err)
	}

	// The leader: crash-instrumented file journal under a replication
	// Tee. Death at the first resume acknowledgement — past the point of
	// no return, resume wave on the wire, acks lost.
	j1, err := journal.OpenFile(leaderPath)
	if err != nil {
		t.Fatal(err)
	}
	cj := &leaderCrashJournal{
		inner: j1,
		trigger: func(rec journal.Record) bool {
			return rec.Kind == journal.KindAck && rec.Wave == "resume"
		},
	}
	tee, err := replica.NewTee(cj, tel)
	if err != nil {
		t.Fatal(err)
	}
	leaderRep, err := replica.Serve(tee, "127.0.0.1:0", replica.LeaderOptions{
		LeaseTTL:  150 * time.Millisecond,
		Telemetry: tel,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = leaderRep.Close() }()

	sbJournal, err := journal.OpenFile(standbyPath)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sbJournal.Close() }()
	sb, err := replica.ConnectStandby(leaderRep.Addr(), replica.StandbyOptions{
		Name:      "standby-1",
		Rank:      1,
		Journal:   sbJournal,
		Telemetry: tel,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sb.Close() }()

	mgr1, err := manager.New(mgrEP1, plan, manager.Options{
		StepTimeout: 2 * time.Second,
		Journal:     tee,
		Telemetry:   tel,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr1.Execute(scenario.Source, scenario.Target); !errors.Is(err, errLeaderDeath) {
		t.Fatalf("Execute should die at the simulated crash, got %v", err)
	}

	// Fail-stop: the whole leader process goes away at once — manager
	// listener and replication listener, no detach ceremony.
	if err := mgrEP1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := leaderRep.Close(); err != nil {
		t.Fatal(err)
	}
	died := time.Now()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sb.WaitLeaderLost(ctx); err != nil {
		t.Fatalf("WaitLeaderLost: %v", err)
	}
	detected := time.Now()

	// The post-detection promote: manager construction over the standby's
	// own journal with the election epoch — one fsync, no replay.
	mgr2, rst, err := sb.Promote(mgrEP2, plan, manager.Options{
		StepTimeout: 2 * time.Second,
		Telemetry:   tel,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	ready := time.Since(detected)
	t.Logf("leader death -> lease expiry %v; post-detection takeover-ready %v", detected.Sub(died), ready)
	// The hot path is one fsync (the fencing record) — typically well
	// under a millisecond; the bound below only guards the structural
	// claim against fs jitter, keeping takeover strictly under the 9.9 ms
	// cold-recovery baseline. BenchmarkLeaderFailoverOverTCP reports the
	// median.
	if ready >= 8*time.Millisecond {
		t.Errorf("post-detection takeover took %v; hot takeover must beat the 9.9 ms cold-recovery baseline", ready)
	}
	if mgr2.Epoch() != 2 {
		t.Fatalf("promoted epoch = %d, want 2", mgr2.Epoch())
	}
	if !rst.InFlight || !rst.PastPoNR {
		t.Fatalf("streamed state missed the in-flight step: %+v", rst)
	}

	// The agents' redial loops chase the ring to the standby's endpoint;
	// then recovery re-drives the resume wave and finishes the MAP.
	if err := mgrEP2.WaitForAgents(5*time.Second, reg.Processes()...); err != nil {
		t.Fatal(err)
	}
	res, err := mgr2.RecoverState(ctx, rst)
	if err != nil {
		t.Fatalf("RecoverState: %v", err)
	}
	if !res.Completed || res.Final != scenario.Target {
		t.Fatalf("takeover did not complete the adaptation: %+v", res)
	}

	// Idempotence: the re-driven resume wave must not have applied any
	// in-action twice.
	for name, tp := range procs {
		tp.mu.Lock()
		seen := make(map[string]bool)
		for _, id := range tp.inActions {
			if seen[id] {
				t.Errorf("agent %s applied in-action %s twice", name, id)
			}
			seen[id] = true
		}
		tp.mu.Unlock()
	}
	// Every agent followed the takeover to epoch 2, and a straggler
	// message from the dead epoch is fenced, not acted on.
	for name, ag := range agents {
		if got := ag.Epoch(); got != 2 {
			t.Errorf("agent %s epoch = %d, want 2", name, got)
		}
	}
	victim := reg.Processes()[0]
	if err := mgrEP2.Send(protocol.Message{Type: protocol.MsgHeartbeat, To: victim, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for agents[victim].Fenced() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := agents[victim].Fenced(); got < 1 {
		t.Errorf("agent %s fenced %d stale-epoch messages, want >= 1", victim, got)
	}

	if got := tel.Counter("replica.takeovers").Value(); got != 1 {
		t.Errorf("replica.takeovers = %d, want 1", got)
	}

	// The standby's journal carries the whole story: the replicated
	// epoch-1 prefix followed by the epoch-2 takeover, nothing left in
	// flight. The replicated prefix must be a prefix of the leader's
	// on-disk log — the leader file may additionally hold a written but
	// never-committed tail (the simulated crash stops fsync, not the OS),
	// which replication correctly never shipped.
	leaderRecs, _, err := journal.ReadFile(leaderPath)
	if err != nil {
		t.Fatal(err)
	}
	standbyRecs, torn, err := journal.ReadFile(standbyPath)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Errorf("torn tail of %d bytes in the standby journal", torn)
	}
	replicated := len(standbyRecs)
	for i, r := range standbyRecs {
		if r.Epoch == 2 && r.Kind == journal.KindEpoch {
			replicated = i
			break
		}
	}
	if replicated == 0 || replicated > len(leaderRecs) {
		t.Fatalf("replicated prefix of %d records cannot come from a %d-record leader log", replicated, len(leaderRecs))
	}
	for i := 0; i < replicated; i++ {
		if !recordsEquivalent(standbyRecs[i], leaderRecs[i]) {
			t.Fatalf("standby record %d diverged from leader log:\n standby %+v\n leader  %+v", i, standbyRecs[i], leaderRecs[i])
		}
	}
	st := journal.Replay(standbyRecs)
	if st.InFlight {
		t.Errorf("standby journal still shows an in-flight adaptation: %+v", st)
	}
	if st.LastEpoch != 2 {
		t.Errorf("standby journal last epoch = %d, want 2", st.LastEpoch)
	}
}

// recordsEquivalent compares the replay-relevant record fields; Step
// holds a slice, so the whole Record is not ==-comparable, and Seq is
// per-file numbering that legitimately differs between the two logs.
func recordsEquivalent(a, b journal.Record) bool {
	if a.Epoch != b.Epoch || a.Kind != b.Kind || a.Wave != b.Wave || a.Process != b.Process ||
		a.Source != b.Source || a.Target != b.Target || a.Outcome != b.Outcome || a.Detail != b.Detail {
		return false
	}
	as, bs := a.Step, b.Step
	return as.ActionID == bs.ActionID && as.PathIndex == bs.PathIndex && as.Attempt == bs.Attempt
}

// BenchmarkLeaderFailoverOverTCP measures the post-detection hot-takeover
// path: a standby that streamed an in-flight adaptation past its point of
// no return promotes itself — manager construction over its own journal
// plus the epoch-fencing commit (the single fsync on this path). Compare
// takeover_us/op against BenchmarkCrashRecoveryOverTCP's ~9.9 ms
// death-to-target cold baseline: detection aside, the standby is
// adaptation-ready in well under a millisecond because the journal replay
// and agent re-registration that dominate cold recovery are gone.
func BenchmarkLeaderFailoverOverTCP(b *testing.B) {
	scenario := paper.MustScenario()
	plan, err := planner.New(scenario.Invariants, scenario.Actions)
	if err != nil {
		b.Fatal(err)
	}
	ep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = ep.Close() }()

	inFlight := []journal.Record{
		{Epoch: 1, Kind: journal.KindEpoch},
		{Epoch: 1, Kind: journal.KindAdaptBegin, Source: "110100", Target: "001011"},
		{Epoch: 1, Kind: journal.KindPlan, Detail: "A2 -> A17 -> A1 -> A4 -> A16"},
		{Epoch: 1, Kind: journal.KindStepBegin, Step: protocol.Step{ActionID: "A2", Attempt: 1, Participants: []string{"server", "laptop"}}},
		{Epoch: 1, Kind: journal.KindAck, Wave: "reset", Process: "server", Step: protocol.Step{ActionID: "A2", Attempt: 1}},
		{Epoch: 1, Kind: journal.KindAck, Wave: "reset", Process: "laptop", Step: protocol.Step{ActionID: "A2", Attempt: 1}},
		{Epoch: 1, Kind: journal.KindPoNR, Step: protocol.Step{ActionID: "A2", Attempt: 1}},
	}

	samples := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		lj, err := journal.OpenFile(filepath.Join(dir, "leader.journal"))
		if err != nil {
			b.Fatal(err)
		}
		tee, err := replica.NewTee(lj, nil)
		if err != nil {
			b.Fatal(err)
		}
		leader, err := replica.Serve(tee, "127.0.0.1:0", replica.LeaderOptions{LeaseTTL: 40 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		sj, err := journal.OpenFile(filepath.Join(dir, "standby.journal"))
		if err != nil {
			b.Fatal(err)
		}
		sb, err := replica.ConnectStandby(leader.Addr(), replica.StandbyOptions{Name: "standby-1", Journal: sj})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range inFlight {
			if err := tee.Append(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := tee.Sync(); err != nil {
			b.Fatal(err)
		}
		// Abrupt leader death, then the lease horizon passes.
		if err := leader.Close(); err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := sb.WaitLeaderLost(ctx); err != nil {
			b.Fatal(err)
		}
		cancel()

		b.StartTimer()
		start := time.Now()
		mgr, rst, err := sb.Promote(ep, plan, manager.Options{})
		if err != nil {
			b.Fatal(err)
		}
		samples = append(samples, time.Since(start))
		b.StopTimer()

		if mgr.Epoch() != 2 || !rst.PastPoNR {
			b.Fatalf("bad takeover: epoch %d, state %+v", mgr.Epoch(), rst)
		}
		_ = sj.Close()
		_ = lj.Close()
		b.StartTimer()
	}
	b.StopTimer()
	// The median is the honest summary here: the path is one fsync, and
	// container filesystems throw multi-millisecond outliers that say
	// nothing about the takeover design.
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	b.ReportMetric(float64(samples[len(samples)/2].Microseconds()), "takeover_p50_us")
	b.ReportMetric(float64(samples[len(samples)*99/100].Microseconds()), "takeover_p99_us")
}
