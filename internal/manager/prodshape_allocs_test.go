//go:build !race

package manager_test

import (
	"context"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
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
// process at most 92 allocations. The count covers every goroutine:
// manager, agents, both ends of every connection, leader and standby. It
// read 404.1 while the bound was 1,100, and 275.1 once a step reused its
// wave buffers, an agent formatted a step's key once, the SAG search used a
// typed heap and safe configurations' vectors came from the SAG. It read
// 112.9 once the standby emptied its acknowledgement sets in place and
// reused its batch slice, a decoder kept step shapes across adaptations,
// agents formatted state changes only for a flight recorder and adopted a
// current trace without storing it, and the manager formatted each
// transition's detail once. It reads 82.9 since each agent re-arms one
// reset timer, the planner computes an action's participants once and an
// agent takes a whole share of a step without copying it (bound: + 10 %).
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
	if perAdapt > 92 {
		t.Errorf("a production-shape adaptation costs %.1f allocations, want at most 92", perAdapt)
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

// busDeployment starts the benchmark's adapt_mem deployment: the paper's
// agents on the in-process bus, no journal, no standby and an idle
// application, instrumented by tel (nil in adapt_mem). adapt runs n
// adaptations and fails the test unless each one completes at the target.
func busDeployment(t *testing.T, tel *telemetry.Registry) (adapt func(n int)) {
	t.Helper()
	const stall = 30 * time.Second // a loaded host must not fail a count
	scenario, err := paper.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.New(scenario.Invariants, scenario.Actions)
	if err != nil {
		t.Fatal(err)
	}
	bus := transport.NewBus()
	t.Cleanup(func() { _ = bus.Close() })
	processOf := func(component string) string {
		p, _ := scenario.Registry.ProcessOf(component)
		return p
	}
	for _, name := range scenario.Registry.Processes() {
		ep, err := bus.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		ag, err := agent.New(name, ep, idleProc{}, agent.Options{ResetTimeout: stall, ProcessOf: processOf, Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		go ag.Run()
		t.Cleanup(ag.Close)
	}
	mgrEP, err := bus.Endpoint(protocol.ManagerName)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := manager.New(mgrEP, plan, manager.Options{StepTimeout: stall, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	return func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			res, err := mgr.Execute(scenario.Source, scenario.Target)
			if err != nil || !res.Completed || res.Final != scenario.Target {
				t.Fatalf("adaptation %d: %+v, %v", i, res, err)
			}
		}
	}
}

// TestBusShapeAdaptationAllocs holds the benchmark's adapt_mem
// allocs_per_op where `go test ./...` sees it: the paper's adaptation on
// the in-process bus with no journal, no standby, nil telemetry and an idle
// application — manager, agents and planner with no I/O — costs the whole
// process at most 19 allocations. It read 254.1 before nil telemetry
// stopped formatting span names and the MAP, a bus message stopped escaping,
// the SAG search got a typed heap and a step started reusing its wave
// buffers, and 47.0 before each agent re-armed one reset timer instead of a
// context.WithTimeout per reset (20 → 5), the planner computed an action's
// participants and one-phase wave once (10 → 0) and an agent took a whole
// share of a step without copying it (5 → 0); it reads 17.0 since (bound:
// + 10 %). What is left is the planner's search and its safety check of
// source and target, the plan, each step's key, each reset's context and
// the step reports.
func TestBusShapeAdaptationAllocs(t *testing.T) {
	adapt := busDeployment(t, nil)
	const warm, measured = 200, 300
	adapt(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	adapt(measured)
	runtime.ReadMemStats(&after)
	perAdapt := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("%.1f allocations per adaptation", perAdapt)
	if perAdapt > 19 {
		t.Errorf("a bus-shape adaptation costs %.1f allocations, want at most 19", perAdapt)
	}
}

// TestNilTelemetryFormatsNothing guards the rule that formatting for a nil
// span is a bug. With nil telemetry, no allocation made under the manager's
// executeStep or the agent's handleReset and doResume may come from a
// callee that formats: telemetry, strconv, fmt, a string concatenation or
// the agent's span helper. The runtime's memory profile, sampling every
// allocation, attributes each one to its stack.
func TestNilTelemetryFormatsNothing(t *testing.T) {
	sites := allocsUnder(busDeployment(t, nil),
		"repro/internal/manager.(*Manager).executeStep",
		"repro/internal/agent.(*Agent).handleReset",
		"repro/internal/agent.(*Agent).doResume")
	if len(sites) == 0 {
		t.Fatal("the memory profile attributed no allocation to a step; the check saw nothing")
	}
	for _, s := range sites {
		for _, prefix := range []string{"repro/internal/telemetry.", "strconv.", "fmt.", "runtime.concatstring", "repro/internal/agent.(*Agent).startSpan"} {
			if strings.HasPrefix(s.callee, prefix) {
				t.Errorf("%s allocates %d times in %s with nil telemetry", s.target, s.n, s.callee)
			}
		}
	}
}

// TestAbsentFlightRecorderFormatsNothing extends the rule to live
// telemetry: a sink that is not attached costs nothing. With a live
// registry and no flight recorder, no allocation made under an agent's
// state transition or its adoption of the manager's trace may come from a
// string concatenation: the state-change text is for the flight recorder
// alone.
func TestAbsentFlightRecorderFormatsNothing(t *testing.T) {
	sites := allocsUnder(busDeployment(t, telemetry.NewRegistry()),
		"repro/internal/agent.(*Agent).transition",
		"repro/internal/telemetry.(*Registry).AdoptActiveTrace")
	if len(sites) == 0 {
		t.Fatal("the memory profile attributed no allocation to an agent; the check saw nothing")
	}
	for _, s := range sites {
		if strings.HasPrefix(s.callee, "runtime.concatstring") {
			t.Errorf("%s allocates %d times in %s with no flight recorder", s.target, s.n, s.callee)
		}
	}
}

// allocSite is one call stack's allocations under a target function: the
// target, the function it called to allocate, and how many times.
type allocSite struct {
	target, callee string
	n              int64
}

// allocsUnder runs one adaptation, then five more under a memory profile
// that samples every allocation, and returns the allocations of those five
// made under one of targets, each attributed to the innermost target on
// its stack.
func allocsUnder(adapt func(n int), targets ...string) []allocSite {
	adapt(1)
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocSites()
	adapt(5)
	after := allocSites()

	var sites []allocSite
	for stack, n := range after {
		if n <= before[stack] {
			continue
		}
		frames := runtime.CallersFrames(stack[:])
		callee := ""
		for {
			f, more := frames.Next()
			if slices.Contains(targets, f.Function) {
				sites = append(sites, allocSite{f.Function, callee, n - before[stack]})
				break
			}
			callee = f.Function
			if !more {
				break
			}
		}
	}
	return sites
}

// allocSites returns the allocation count of every stack in the memory
// profile, after the two collections that publish recent allocations.
func allocSites() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	sites := make(map[[32]uintptr]int64, len(recs))
	for _, r := range recs {
		sites[r.Stack0] += r.AllocObjects
	}
	return sites
}
