package tlogic

import (
	"context"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestParseSpec(t *testing.T) {
	rules, err := ParseSpec(`
		# packet processing obligations
		after recv expect deliver
		after begin-decode expect end-decode; after send expect ack
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("rules = %v", rules)
	}
	if rules[0].Trigger != "recv" || rules[0].Discharge != "deliver" {
		t.Errorf("rule 0 = %v", rules[0])
	}
	if rules[2].String() != "after send expect ack" {
		t.Errorf("String = %q", rules[2])
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"# only comments",
		"after x",
		"when x expect y",
		"after x expect",
		"after x require y",
	} {
		if _, err := ParseSpec(src); err == nil {
			t.Errorf("ParseSpec(%q) should fail", src)
		}
	}
}

func TestNewMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(nil); err == nil {
		t.Error("no rules should fail")
	}
	if _, err := NewMonitor([]Rule{{Trigger: "", Discharge: "y"}}); err == nil {
		t.Error("empty trigger should fail")
	}
	if _, err := NewMonitor([]Rule{{Trigger: "x", Discharge: "x"}}); err == nil {
		t.Error("self-discharging rule should fail")
	}
}

func TestObligationLifecycle(t *testing.T) {
	m := MustMonitor("after recv expect deliver")
	if !m.Safe() {
		t.Fatal("fresh monitor must be safe")
	}
	m.Observe("recv", 1)
	if m.Safe() || m.Outstanding() != 1 {
		t.Fatal("open obligation must make the state unsafe")
	}
	m.Observe("recv", 2)
	if m.Outstanding() != 2 {
		t.Fatalf("Outstanding = %d", m.Outstanding())
	}
	m.Observe("deliver", 1)
	if m.Safe() {
		t.Fatal("key 2 still open")
	}
	m.Observe("deliver", 2)
	if !m.Safe() {
		t.Fatal("all obligations discharged")
	}
	if m.Observed() != 4 {
		t.Errorf("Observed = %d", m.Observed())
	}
}

func TestUnsolicitedDischargeIgnored(t *testing.T) {
	m := MustMonitor("after recv expect deliver")
	m.Observe("deliver", 9)
	if !m.Safe() {
		t.Error("unsolicited discharge must not open or break anything")
	}
	// And it must not pre-pay a future obligation.
	m.Observe("recv", 9)
	if m.Safe() {
		t.Error("trigger after unsolicited discharge must still open an obligation")
	}
}

func TestDuplicateTriggersCount(t *testing.T) {
	m := MustMonitor("after recv expect deliver")
	m.Observe("recv", 5)
	m.Observe("recv", 5)
	m.Observe("deliver", 5)
	if m.Safe() {
		t.Error("two triggers need two discharges")
	}
	m.Observe("deliver", 5)
	if !m.Safe() {
		t.Error("both discharged")
	}
}

func TestMultipleRules(t *testing.T) {
	m := MustMonitor("after recv expect deliver\nafter begin expect end")
	m.Observe("recv", 1)
	m.Observe("begin", 1)
	m.Observe("deliver", 1)
	if m.Safe() {
		t.Error("begin/end still open")
	}
	obl := m.Obligations()
	if len(obl) != 1 || !strings.Contains(obl[0], "after begin expect end") {
		t.Errorf("Obligations = %v", obl)
	}
	m.Observe("end", 1)
	if !m.Safe() {
		t.Error("all discharged")
	}
}

func TestWaitSafe(t *testing.T) {
	m := MustMonitor("after recv expect deliver")
	m.Observe("recv", 1)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		done <- m.WaitSafe(ctx)
	}()
	select {
	case err := <-done:
		t.Fatalf("WaitSafe returned early: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	m.Observe("deliver", 1)
	if err := <-done; err != nil {
		t.Fatalf("WaitSafe: %v", err)
	}
}

func TestWaitSafeTimeoutReportsObligations(t *testing.T) {
	m := MustMonitor("after recv expect deliver")
	m.Observe("recv", 7)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := m.WaitSafe(ctx)
	if err == nil {
		t.Fatal("WaitSafe should time out")
	}
	if !strings.Contains(err.Error(), "keys [7]") {
		t.Errorf("error should name the open key: %v", err)
	}
}

func TestReset(t *testing.T) {
	m := MustMonitor("after recv expect deliver")
	m.Observe("recv", 1)
	m.Reset()
	if !m.Safe() {
		t.Error("Reset must clear obligations")
	}
}

func TestConcurrentObserve(t *testing.T) {
	m := MustMonitor("after recv expect deliver")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < 500; i++ {
				key := base*1000 + i
				m.Observe("recv", key)
				m.Observe("deliver", key)
			}
		}(uint64(g))
	}
	wg.Wait()
	if !m.Safe() {
		t.Errorf("all paired events observed; Outstanding = %d", m.Outstanding())
	}
}

// TestPropertyPairedStreamsAlwaysSafe: any interleaving of paired
// trigger/discharge events over distinct keys ends safe; dropping any
// discharge ends unsafe.
func TestPropertyPairedStreamsAlwaysSafe(t *testing.T) {
	f := func(keys []uint8, dropIdx uint8) bool {
		if len(keys) == 0 {
			return true
		}
		seen := map[uint64]bool{}
		m := MustMonitor("after recv expect deliver")
		drop := int(dropIdx) % len(keys)
		dropped := false
		for i, k8 := range keys {
			k := uint64(k8)
			if seen[k] {
				continue
			}
			seen[k] = true
			m.Observe("recv", k)
			if i == drop && !dropped {
				dropped = true
				continue // lose this discharge
			}
			m.Observe("deliver", k)
		}
		if dropped {
			return !m.Safe() && m.Outstanding() == 1
		}
		return m.Safe()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEmptySpec(t *testing.T) {
	for _, src := range []string{"", "   \n\n", "# only a comment\n", ";;;\n# nothing"} {
		if _, err := ParseSpec(src); err == nil {
			t.Errorf("ParseSpec(%q) should reject an empty specification", src)
		}
	}
}

func TestContradictoryRulesRejected(t *testing.T) {
	// Two rules that discharge each other: once either triggers, every
	// discharge re-opens the other obligation and Safe is unreachable.
	_, err := NewMonitor([]Rule{
		{Trigger: "a", Discharge: "b"},
		{Trigger: "b", Discharge: "a"},
	})
	if err == nil || !strings.Contains(err.Error(), "contradictory") {
		t.Fatalf("two-rule cycle not rejected: %v", err)
	}

	// A longer cycle hidden among healthy rules.
	_, err = NewMonitor([]Rule{
		{Trigger: "send", Discharge: "ack"}, // healthy
		{Trigger: "x", Discharge: "y"},
		{Trigger: "y", Discharge: "z"},
		{Trigger: "z", Discharge: "x"},
	})
	if err == nil || !strings.Contains(err.Error(), "contradictory") {
		t.Fatalf("three-rule cycle not rejected: %v", err)
	}

	// An acyclic chain sharing events is fine: discharging one rule may
	// trigger the next as long as the chain terminates.
	if _, err := NewMonitor([]Rule{
		{Trigger: "a", Discharge: "b"},
		{Trigger: "b", Discharge: "c"},
		{Trigger: "c", Discharge: "d"},
	}); err != nil {
		t.Fatalf("acyclic chain wrongly rejected: %v", err)
	}
}

// TestContradictionIsReal documents why cycles are rejected: without the
// check, the monitor would never return to safe after the first trigger.
func TestContradictionIsReal(t *testing.T) {
	m := &Monitor{
		byTrigger:   map[string][]int{"a": {0}, "b": {1}},
		byDischarge: map[string][]int{"b": {0}, "a": {1}},
		rules:       []Rule{{Trigger: "a", Discharge: "b"}, {Trigger: "b", Discharge: "a"}},
		pending:     []map[uint64]int{{}, {}},
	}
	m.Observe("a", 1)
	for i := 0; i < 10; i++ {
		m.Observe("b", 1)
		m.Observe("a", 1)
		if m.Safe() {
			t.Fatal("cyclic spec unexpectedly reached safe")
		}
	}
}

// TestCompareTraceAgreement: the frame-transmission rule derives exactly
// the hand-identified safe states of a clean send/recv trace.
func TestCompareTraceAgreement(t *testing.T) {
	rules := []Rule{{Trigger: "send", Discharge: "recv"}}
	trace := []Event{
		{"send", 1}, {"recv", 1},
		{"send", 2}, {"send", 3}, {"recv", 2}, {"recv", 3},
	}
	// By hand: safe exactly when no packet is in flight.
	hand := []bool{false, true, false, false, false, true}
	div, err := CompareTrace(rules, trace, hand)
	if err != nil {
		t.Fatal(err)
	}
	if len(div) != 0 {
		t.Fatalf("derived and hand-identified safe states should agree, got %v", div)
	}
}

// TestCompareTraceDisagreementReported: a plausible-looking but wrong
// rule set (obligations keyed on the wrong discharge event) must be
// reported as diverging from the hand-identified safe states, never
// silently accepted.
func TestCompareTraceDisagreementReported(t *testing.T) {
	rules := []Rule{{Trigger: "send", Discharge: "ack"}} // trace acks nothing
	trace := []Event{{"send", 1}, {"recv", 1}}
	hand := []bool{false, true} // by hand, recv(1) restores safety
	div, err := CompareTrace(rules, trace, hand)
	if err != nil {
		t.Fatal(err)
	}
	if len(div) != 1 {
		t.Fatalf("expected exactly one divergence, got %v", div)
	}
	d := div[0]
	if d.Index != 1 || d.Derived || !d.Hand {
		t.Fatalf("wrong divergence: %+v", d)
	}
	if len(d.Outstanding) == 0 || !strings.Contains(d.String(), "after send expect ack") {
		t.Fatalf("divergence should name the outstanding obligation: %s", d)
	}
}

func TestCompareTraceLengthMismatch(t *testing.T) {
	_, err := CompareTrace([]Rule{{Trigger: "a", Discharge: "b"}}, []Event{{"a", 1}}, nil)
	if err == nil {
		t.Error("mismatched trace/marking lengths should error")
	}
}
