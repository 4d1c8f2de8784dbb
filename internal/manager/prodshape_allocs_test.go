//go:build !race

package manager_test

import (
	"context"
	"path/filepath"
	"reflect"
	"runtime"
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

// idleProc is an application with nothing to adapt.
type idleProc struct{}

func (idleProc) PreAction(protocol.Step, []action.Op) error      { return nil }
func (idleProc) Reset(context.Context, protocol.Step) error      { return nil }
func (idleProc) InAction(protocol.Step, []action.Op) error       { return nil }
func (idleProc) Resume(protocol.Step) error                      { return nil }
func (idleProc) PostAction(protocol.Step, []action.Op) error     { return nil }
func (idleProc) Rollback(protocol.Step, []action.Op, bool) error { return nil }

// TestProdShapeAdaptationAllocs holds the benchmark's adapt_prod
// allocs_per_op where `go test ./...` sees it: the paper's adaptation over
// the deployment we would run — agents on reconnecting TCP connections, a
// file journal under a replication tee, one attached standby journaling to
// its own file, live telemetry, an idle application — costs the whole
// process at most 1,100 allocations. The count covers every goroutine:
// manager, agents, both ends of every connection, leader and standby.
func TestProdShapeAdaptationAllocs(t *testing.T) {
	const stall = 30 * time.Second // a loaded host must not fail a count
	scenario, err := paper.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.New(scenario.Invariants, scenario.Actions)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.NewRegistry()
	plan.SetTelemetry(tel)

	hub, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	hub.SetTelemetry(tel)
	processOf := func(component string) string {
		p, _ := scenario.Registry.ProcessOf(component)
		return p
	}
	names := scenario.Registry.Processes()
	for _, name := range names {
		ep, err := transport.DialReconnectingTCP(name, transport.NewAddrRing(hub.Addr()).Next, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		ep.SetTelemetry(tel)
		ag, err := agent.New(name, ep, idleProc{}, agent.Options{ResetTimeout: stall, ProcessOf: processOf, Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		go ag.Run()
		defer ag.Close()
	}
	if err := hub.WaitForAgents(5*time.Second, names...); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	leaderLog, err := journal.OpenFile(filepath.Join(dir, "leader.journal"))
	if err != nil {
		t.Fatal(err)
	}
	tee, err := replica.NewTee(leaderLog, tel)
	if err != nil {
		t.Fatal(err)
	}
	defer tee.Close()
	leader, err := replica.Serve(tee, "127.0.0.1:0", replica.LeaderOptions{LeaseTTL: stall, AckTimeout: stall, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	standbyLog, err := journal.OpenFile(filepath.Join(dir, "standby.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer standbyLog.Close()
	standby, err := replica.ConnectStandby(leader.Addr(), replica.StandbyOptions{Name: "standby-1", Rank: 1, Journal: standbyLog, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()

	mgr, err := manager.New(hub, plan, manager.Options{StepTimeout: stall, Telemetry: tel, Journal: tee})
	if err != nil {
		t.Fatal(err)
	}
	adapt := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			res, err := mgr.Execute(scenario.Source, scenario.Target)
			if err != nil || !res.Completed || res.Final != scenario.Target {
				t.Fatalf("adaptation %d: %+v, %v", i, res, err)
			}
		}
	}
	const warm, measured = 200, 300
	adapt(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	adapt(measured)
	runtime.ReadMemStats(&after)
	perAdapt := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("%.1f allocations per adaptation", perAdapt)
	if perAdapt > 1100 {
		t.Errorf("a production-shape adaptation costs %.1f allocations, want at most 1,100", perAdapt)
	}

	// The counts mean nothing unless the run was right: the leader's log
	// replays to nothing in flight and the standby holds exactly that.
	recs, err := tee.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := journal.Replay(recs)
	if want.InFlight {
		t.Error("the leader's log replays to an adaptation in flight")
	}
	if got := standby.State(); !reflect.DeepEqual(got, want) {
		t.Errorf("the standby's state differs from the leader's replayed log:\n got  %+v\n want %+v", got, want)
	}
}
