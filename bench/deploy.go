package main

import (
	"fmt"
	"path/filepath"
	"reflect"
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
	"repro/internal/video"
)

const (
	stepTimeout = 5 * time.Second
	// stallTimeout is the replication ack deadline and lease. The defaults
	// (2 s, 1 s) are shorter than the stalls a shared host imposes on the
	// whole process now and then; one of those would detach the standby
	// and fail the run's replication checks for no fault of the code.
	stallTimeout = 30 * time.Second
)

// deployOptions picks the control plane an adaptation runs over.
type deployOptions struct {
	// journalDir, when set, selects the production shape: TCP transport
	// with reconnecting agents, a file journal under a replication tee,
	// and one attached standby with its own file journal. Empty selects
	// the in-process bus with no journal.
	journalDir string
	// tel is shared by manager, agents, transport and replica; nil
	// disables telemetry.
	tel *telemetry.Registry
	// t is nil on end-to-end runs.
	t *tracer
	// sockets, when set, are the MetaSocket adapters of a running video
	// system; the adaptation then really recomposes its filter chains.
	// Nil adapts a no-op application.
	sockets map[string]agent.LocalProcess
}

// deployment is a manager with its agents, ready to Execute the paper's
// DES-64 → DES-128 adaptation.
type deployment struct {
	scenario *paper.Scenario
	mgr      *manager.Manager
	t        *tracer
	sink     *dwellSink
	procs    map[string]*procShim
	log      *messageLog
	adapts   int
	closers  []func()

	// Production shape only.
	leaderLog, standbyLog *journalShim
	leaderPath            string
	standby               *replica.Standby
}

func deploy(opts deployOptions) (d *deployment, err error) {
	scenario, err := paper.NewScenario()
	if err != nil {
		return nil, err
	}
	plan, err := planner.New(scenario.Invariants, scenario.Actions)
	if err != nil {
		return nil, err
	}
	plan.SetTelemetry(opts.tel)
	d = &deployment{
		scenario: scenario,
		t:        opts.t,
		sink:     &dwellSink{keep: opts.t != nil},
		procs:    make(map[string]*procShim),
		log:      &messageLog{},
	}
	defer func() {
		if err != nil {
			d.close()
			d = nil
		}
	}()

	names := scenario.Registry.Processes()
	var mgrEP transport.Endpoint
	var agentEP func(name string) (transport.Endpoint, error)
	connected := func() error { return nil }
	if opts.journalDir == "" {
		bus := transport.NewBus()
		bus.SetTelemetry(opts.tel)
		d.closers = append(d.closers, func() { _ = bus.Close() })
		if mgrEP, err = bus.Endpoint(protocol.ManagerName); err != nil {
			return d, err
		}
		agentEP = bus.Endpoint
	} else {
		listener, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			return d, err
		}
		listener.SetTelemetry(opts.tel)
		d.closers = append(d.closers, func() { _ = listener.Close() })
		mgrEP = listener
		agentEP = func(name string) (transport.Endpoint, error) {
			ring := transport.NewAddrRing(listener.Addr())
			ep, err := transport.DialReconnectingTCP(name, ring.Next, 5*time.Millisecond)
			if err != nil {
				return nil, err
			}
			ep.SetTelemetry(opts.tel)
			d.closers = append(d.closers, func() { _ = ep.Close() })
			return ep, nil
		}
		connected = func() error { return listener.WaitForAgents(stepTimeout, names...) }
	}

	processOf := func(component string) string {
		p, _ := scenario.Registry.ProcessOf(component)
		return p
	}
	for _, name := range names {
		ep, err := agentEP(name)
		if err != nil {
			return d, err
		}
		var proc agent.LocalProcess
		switch {
		case opts.sockets == nil:
			shim := &procShim{t: opts.t, sink: d.sink, prefix: "agent"}
			d.procs[name], proc = shim, shim
		case opts.t != nil:
			prefix := "adapters.receiver"
			if name == paper.ProcessServer {
				prefix = "adapters.sender"
			}
			shim := &procShim{inner: opts.sockets[name], t: opts.t, sink: d.sink, prefix: prefix}
			d.procs[name], proc = shim, shim
		default:
			proc = opts.sockets[name]
		}
		if opts.t != nil {
			ep = &endpointShim{Endpoint: ep, log: d.log}
		}
		ag, err := agent.New(name, ep, proc, agent.Options{
			ResetTimeout: stepTimeout,
			ProcessOf:    processOf,
			Telemetry:    opts.tel,
		})
		if err != nil {
			return d, err
		}
		go ag.Run()
		d.closers = append(d.closers, ag.Close)
	}
	if err := connected(); err != nil {
		return d, err
	}

	mopts := manager.Options{StepTimeout: stepTimeout, Telemetry: opts.tel}
	if opts.sockets != nil {
		mopts.ResetPhases = func(_ action.Action, participants []string) [][]string {
			return video.SenderFirstPhases(participants)
		}
	}
	if opts.journalDir != "" {
		if mopts.Journal, err = d.replicatedJournal(opts); err != nil {
			return d, err
		}
	}
	if opts.t != nil {
		mgrEP = &endpointShim{Endpoint: mgrEP, t: opts.t, log: d.log}
	}
	d.mgr, err = manager.New(mgrEP, plan, mopts)
	return d, err
}

// replicatedJournal opens the leader's file journal under a replication
// tee, serves it, and attaches one standby with its own file journal.
func (d *deployment) replicatedJournal(opts deployOptions) (journal.Journal, error) {
	d.leaderPath = filepath.Join(opts.journalDir, "leader.journal")
	file, err := journal.OpenFile(d.leaderPath)
	if err != nil {
		return nil, err
	}
	d.leaderLog = &journalShim{inner: file, t: opts.t, appendName: "journal.append", syncName: "journal.sync", onOpPath: true}
	tee, err := replica.NewTee(d.leaderLog, opts.tel)
	if err != nil {
		_ = file.Close()
		return nil, err
	}
	d.closers = append(d.closers, func() { _ = tee.Close() })
	leader, err := replica.Serve(tee, "127.0.0.1:0", replica.LeaderOptions{
		LeaseTTL: stallTimeout, AckTimeout: stallTimeout, Telemetry: opts.tel,
	})
	if err != nil {
		return nil, err
	}
	d.closers = append(d.closers, func() { _ = leader.Close() })

	sbFile, err := journal.OpenFile(filepath.Join(opts.journalDir, "standby.journal"))
	if err != nil {
		return nil, err
	}
	d.closers = append(d.closers, func() { _ = sbFile.Close() })
	d.standbyLog = &journalShim{inner: sbFile, t: opts.t, appendName: "replica.standby_append", syncName: "replica.standby_sync"}
	d.standby, err = replica.ConnectStandby(leader.Addr(), replica.StandbyOptions{
		Name: "standby-1", Rank: 1, Journal: d.standbyLog, Telemetry: opts.tel,
	})
	if err != nil {
		return nil, err
	}
	d.closers = append(d.closers, func() { _ = d.standby.Close() })
	// The outer shim times the tee itself: its Sync is the replicated
	// commit (local fsync, then the standby's append + fsync + ack).
	return &journalShim{inner: tee, t: opts.t, appendName: "replica.append", syncName: "replica.commit", onOpPath: true}, nil
}

// adaptation is what the benchmark's own clocks saw of one Execute.
type adaptation struct {
	wall    time.Duration // Execute's wall time
	blocked time.Duration // some process was held blocked
	steps   int
}

// adapt runs one adaptation to completion.
func (d *deployment) adapt() (adaptation, error) {
	h := d.t.begin("manager.execute")
	start := time.Now()
	res, err := d.mgr.Execute(d.scenario.Source, d.scenario.Target)
	a := adaptation{wall: time.Since(start), steps: len(res.Steps)}
	d.t.end(h)
	d.adapts++
	a.blocked = d.sink.take()
	if err == nil && (!res.Completed || res.Final != d.scenario.Target) {
		err = fmt.Errorf("adaptation ended at %s, completed=%v",
			d.scenario.Registry.BitVector(res.Final), res.Completed)
	}
	return a, err
}

// checkJournals verifies the replicated log after a run: the leader's log
// replays to no adaptation in flight, and the standby's streamed state is
// the state the leader's log replays to, record for record.
func (d *deployment) checkJournals() []string {
	var failed []string
	recs, err := d.leaderLog.Snapshot()
	if err != nil {
		return []string{"leader journal snapshot: " + err.Error()}
	}
	want := journal.Replay(recs)
	if want.InFlight {
		failed = append(failed, "leader journal replays to an adaptation in flight")
	}
	if got := d.standby.State(); !reflect.DeepEqual(got, want) {
		failed = append(failed, "standby state differs from the leader's replayed state")
	}
	sbRecs, err := d.standbyLog.Snapshot()
	if err != nil {
		return append(failed, "standby journal snapshot: "+err.Error())
	}
	if lag := len(recs) - len(sbRecs); lag != 0 {
		failed = append(failed, fmt.Sprintf("standby journal lags the leader by %d records", lag))
	}
	return failed
}

// resetCounters forgets what the warm-up did.
func (d *deployment) resetCounters() {
	d.adapts = 0
	d.log.reset()
	for _, j := range []*journalShim{d.leaderLog, d.standbyLog} {
		if j != nil {
			j.appends.Store(0)
			j.syncs.Store(0)
		}
	}
}

func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}
