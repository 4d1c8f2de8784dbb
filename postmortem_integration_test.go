package safeadapt_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/agent"
	"repro/internal/manager"
	"repro/internal/paper"
	"repro/internal/planner"
	"repro/internal/protocol"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// hangFirstResetProc is a LocalProcess whose first Reset hangs until the
// agent's fail-to-reset timeout fires; every later call succeeds
// immediately. It injects the paper's fail-to-reset failure (Sec. 4.4)
// exactly once per process.
type hangFirstResetProc struct {
	mu        sync.Mutex
	remaining int
}

func (h *hangFirstResetProc) PreAction(protocol.Step, []action.Op) error { return nil }
func (h *hangFirstResetProc) Reset(ctx context.Context, _ protocol.Step) error {
	h.mu.Lock()
	hang := h.remaining > 0
	if hang {
		h.remaining--
	}
	h.mu.Unlock()
	if hang {
		<-ctx.Done()
		return ctx.Err()
	}
	return nil
}
func (h *hangFirstResetProc) InAction(protocol.Step, []action.Op) error       { return nil }
func (h *hangFirstResetProc) Resume(protocol.Step) error                      { return nil }
func (h *hangFirstResetProc) PostAction(protocol.Step, []action.Op) error     { return nil }
func (h *hangFirstResetProc) Rollback(protocol.Step, []action.Op, bool) error { return nil }

// TestPostMortemTimelineOverTCP is the flight-recorder acceptance test: a
// real-TCP adaptation with an injected fail-to-reset failure must leave a
// post-mortem bundle per node, and merging the bundles must reconstruct
// one causally consistent global timeline — no receive ordered at or
// before its send, the rollback causally downstream of the manager's
// timeout, and zero anomalies from the causality checker.
func TestPostMortemTimelineOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP + failure-injection timing; skipped in -short")
	}
	scenario := paper.MustScenario()
	plan, err := planner.New(scenario.Invariants, scenario.Actions)
	if err != nil {
		t.Fatal(err)
	}
	processOf := func(c string) string {
		p, _ := scenario.Registry.ProcessOf(c)
		return p
	}
	// On CI, SAFEADAPT_FLIGHTREC_DIR persists the bundles past the test so
	// a failing run can upload them as workflow artifacts.
	dumpDir := t.TempDir()
	if base := os.Getenv("SAFEADAPT_FLIGHTREC_DIR"); base != "" {
		dumpDir = filepath.Join(base, "postmortem-tcp")
	}

	// Manager node: its own registry and black box, like a real process.
	mgrTel := telemetry.NewRegistry()
	mgrTel.SetNode(protocol.ManagerName)
	mgrFR := telemetry.NewFlightRecorder(protocol.ManagerName, 0)
	mgrFR.SetDumpDir(dumpDir)
	mgrTel.AttachFlight(mgrFR)
	recorders := []*telemetry.FlightRecorder{mgrFR}

	mgrEP, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mgrEP.Close() }()
	mgrEP.SetTelemetry(mgrTel)

	// Agent nodes: one registry + recorder each, over their own TCP conns.
	var agents []*agent.Agent
	for _, name := range scenario.Registry.Processes() {
		tel := telemetry.NewRegistry()
		tel.SetNode(name)
		fr := telemetry.NewFlightRecorder(name, 0)
		fr.SetDumpDir(dumpDir)
		tel.AttachFlight(fr)
		recorders = append(recorders, fr)

		ep, err := transport.DialReconnectingTCP(name, transport.NewAddrRing(mgrEP.Addr()).Next, 0)
		if err != nil {
			t.Fatal(err)
		}
		ep.SetTelemetry(tel)
		ag, err := agent.New(name, ep, &hangFirstResetProc{remaining: 1}, agent.Options{
			// Longer than the manager's StepTimeout: the manager detects
			// the failure first and decides to roll back.
			ResetTimeout: 500 * time.Millisecond,
			ProcessOf:    processOf,
			Telemetry:    tel,
		})
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, ag)
		go ag.Run()
		defer ag.Close()
	}
	if err := mgrEP.WaitForAgents(5*time.Second, scenario.Registry.Processes()...); err != nil {
		t.Fatal(err)
	}

	mgr, err := manager.New(mgrEP, plan, manager.Options{
		StepTimeout: 250 * time.Millisecond,
		Telemetry:   mgrTel,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mgr.Execute(scenario.Source, scenario.Target)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if !res.Completed {
		t.Fatalf("adaptation did not complete: %+v", res)
	}
	rolledBack := false
	for _, s := range res.Steps {
		if s.Outcome == "rolled back" {
			rolledBack = true
		}
	}
	if !rolledBack {
		t.Fatalf("failure injection did not trigger a rollback: %+v", res.Steps)
	}

	// Give the slowest agent time to process its rollback and dump.
	deadlineAt := time.Now().Add(3 * time.Second)
	wantBundles := len(scenario.Registry.Processes()) + 1
	for {
		paths, _ := filepath.Glob(filepath.Join(dumpDir, "*.flightrec.json"))
		if len(paths) >= wantBundles || time.Now().After(deadlineAt) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// One bundle per node, written by AutoDump on the failure path.
	for _, node := range append([]string{protocol.ManagerName}, scenario.Registry.Processes()...) {
		if _, err := os.Stat(filepath.Join(dumpDir, node+".flightrec.json")); err != nil {
			t.Fatalf("missing post-mortem bundle for %s: %v", node, err)
		}
	}

	// Overwrite with the complete rings (what a node does on clean
	// shutdown): the mid-run rollback dumps above proved the failure path;
	// the analysis below wants the whole adaptation, root span included.
	for _, fr := range recorders {
		fr.AutoDump("shutdown")
	}

	bundles, err := telemetry.LoadBundleDir(dumpDir)
	if err != nil {
		t.Fatal(err)
	}

	// The reconstructed timeline must be causally consistent.
	if anomalies := telemetry.CheckCausality(bundles); len(anomalies) != 0 {
		for _, a := range anomalies {
			t.Errorf("anomaly: %s", a)
		}
		t.Fatalf("causality check found %d anomalies", len(anomalies))
	}

	timeline := telemetry.MergeTimeline(bundles)
	if len(timeline) == 0 {
		t.Fatal("merged timeline is empty")
	}

	// No receive ordered at or before its send: pair the k-th send with
	// the k-th receive of each message coordinate and compare Lamport
	// stamps directly (belt to CheckCausality's braces).
	type key struct{ msgType, from, to, step string }
	sends := map[key][]telemetry.FlightEvent{}
	for _, ev := range timeline {
		if ev.Kind == telemetry.FlightSend {
			k := key{ev.MsgType, ev.From, ev.To, ev.Step}
			sends[k] = append(sends[k], ev)
		}
	}
	seen := map[key]int{}
	matched := 0
	for _, ev := range timeline {
		if ev.Kind != telemetry.FlightRecv {
			continue
		}
		k := key{ev.MsgType, ev.From, ev.To, ev.Step}
		i := seen[k]
		seen[k]++
		if i >= len(sends[k]) {
			continue
		}
		matched++
		if ev.Lamport <= sends[k][i].Lamport {
			t.Errorf("recv %q %s->%s step %s at Lamport %d not after its send at %d",
				ev.MsgType, ev.From, ev.To, ev.Step, ev.Lamport, sends[k][i].Lamport)
		}
	}
	if matched == 0 {
		t.Fatal("no send/recv pairs matched; tracing is not propagating")
	}

	// The rollback must be causally downstream of the timeout that caused
	// it: the manager's first reset-done timeout happens-before its
	// rollback decision, and strictly before every agent's receipt of the
	// rollback command.
	var timeoutEv, decisionEv *telemetry.FlightEvent
	for i := range timeline {
		ev := &timeline[i]
		if ev.Node == protocol.ManagerName && ev.Kind == telemetry.FlightTimeout && timeoutEv == nil {
			timeoutEv = ev
		}
		if ev.Node == protocol.ManagerName && ev.Kind == telemetry.FlightRollback && decisionEv == nil {
			decisionEv = ev
		}
	}
	if timeoutEv == nil || decisionEv == nil {
		t.Fatalf("timeline lacks manager timeout (%v) or rollback decision (%v)", timeoutEv, decisionEv)
	}
	if decisionEv.Lamport < timeoutEv.Lamport ||
		(decisionEv.Lamport == timeoutEv.Lamport && decisionEv.Seq < timeoutEv.Seq) {
		t.Errorf("rollback decision (Lamport %d, seq %d) ordered before the timeout (Lamport %d, seq %d)",
			decisionEv.Lamport, decisionEv.Seq, timeoutEv.Lamport, timeoutEv.Seq)
	}
	agentRollbacks := 0
	for _, ev := range timeline {
		if ev.Kind == telemetry.FlightRecv && ev.MsgType == "rollback" {
			agentRollbacks++
			if ev.Lamport <= timeoutEv.Lamport {
				t.Errorf("agent %s received rollback at Lamport %d, not after the timeout at %d",
					ev.Node, ev.Lamport, timeoutEv.Lamport)
			}
		}
	}
	if agentRollbacks == 0 {
		t.Error("no agent recorded receiving the rollback command")
	}

	// One adaptation = one trace: every traced event carries the same ID.
	traceIDs := map[string]bool{}
	for _, ev := range timeline {
		if ev.TraceID != "" {
			traceIDs[ev.TraceID] = true
		}
	}
	if len(traceIDs) != 1 {
		t.Errorf("expected exactly one trace ID across all nodes, got %v", traceIDs)
	}

	// The cross-node span tree splices agent spans under manager spans.
	var tree bytes.Buffer
	telemetry.RenderCrossNodeTree(&tree, bundles)
	out := tree.String()
	if !strings.Contains(out, "[manager] adaptation") {
		t.Errorf("span tree lacks the manager's adaptation root:\n%s", out)
	}
	if !strings.Contains(out, "agent step") {
		t.Errorf("span tree lacks agent-side spans:\n%s", out)
	}
}
