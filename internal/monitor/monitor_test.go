package monitor

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// TestOscillationFiresOnce is the core hysteresis property: a signal
// that breaches, dips just below the threshold, and breaches again —
// without ever recovering to the Clear level — produces exactly one
// adaptation.
func TestOscillationFiresOnce(t *testing.T) {
	values := []float64{
		0.05, // healthy
		0.30, // breach -> fire
		0.15, // below threshold but above clear: stays latched
		0.35, // breach again: latched, must not fire
		0.12, // still above clear
		0.40, // and again
	}
	i := 0
	var fires atomic.Int64
	m, err := New(telemetry.NewRegistry(), Rule{
		Name:      "loss",
		Source:    func() float64 { v := values[i%len(values)]; i++; return v },
		Threshold: 0.20,
		Clear:     0.10,
		Trigger:   func() error { fires.Add(1); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for range values {
		m.Tick()
	}
	if err := m.WaitIdle(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := fires.Load(); got != 1 {
		t.Fatalf("oscillating signal fired %d adaptations, want exactly 1", got)
	}
}

// TestFireFlushesCaptureAtTheBreach: a firing asks the always-on capture
// for a row at once, and the row it would take shows the breach — the
// rule's gauge and the fire counter are already set when the flush hook
// runs. A periodic sampler alone can miss the peak window entirely.
func TestFireFlushesCaptureAtTheBreach(t *testing.T) {
	tel := telemetry.NewRegistry()
	tel.AttachFlight(telemetry.NewFlightRecorder("monitor-test", 0))
	type row struct {
		reason         string
		permille, fire int64
	}
	var rows []row
	tel.SetCaptureFlush(func(reason string) {
		rows = append(rows, row{reason, tel.Gauge("monitor.loss.permille").Value(), tel.Counter("monitor.fires").Value()})
	})
	values := []float64{0.05, 0.30, 0.02}
	i := 0
	m, err := New(tel, Rule{
		Name:      "loss",
		Source:    func() float64 { v := values[i]; i++; return v },
		Threshold: 0.20,
		Clear:     0.10,
		Trigger:   func() error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for range values {
		m.Tick()
	}
	if err := m.WaitIdle(time.Second); err != nil {
		t.Fatal(err)
	}
	if want := []row{{"monitor fire: loss", 300, 1}}; len(rows) != 1 || rows[0] != want[0] {
		t.Fatalf("capture flushes = %+v, want exactly %+v", rows, want)
	}
}

// TestRearmAfterClearFiresAgain: once the signal genuinely recovers
// (<= Clear), a new breach is a new incident and fires again.
func TestRearmAfterClearFiresAgain(t *testing.T) {
	values := []float64{0.30, 0.05, 0.30}
	i := 0
	var fires atomic.Int64
	reg := telemetry.NewRegistry()
	m, err := New(reg, Rule{
		Name:      "loss",
		Source:    func() float64 { v := values[i%len(values)]; i++; return v },
		Threshold: 0.20,
		Clear:     0.10,
		Trigger:   func() error { fires.Add(1); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for range values {
		m.Tick()
	}
	if err := m.WaitIdle(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := fires.Load(); got != 2 {
		t.Fatalf("breach/recover/breach fired %d adaptations, want 2", got)
	}
	if got := reg.Counter("monitor.rearms").Value(); got != 1 {
		t.Fatalf("rearms counter = %d, want 1", got)
	}
}

// TestDebounceSuppressesTransients: a single breaching tick below the
// debounce requirement never fires; only a sustained breach does.
func TestDebounceSuppressesTransients(t *testing.T) {
	values := []float64{0.30, 0.05, 0.30, 0.30, 0.30}
	i := 0
	var fires atomic.Int64
	m, err := New(telemetry.NewRegistry(), Rule{
		Name:      "loss",
		Source:    func() float64 { v := values[i%len(values)]; i++; return v },
		Threshold: 0.20,
		Clear:     0.10,
		Debounce:  3,
		Trigger:   func() error { fires.Add(1); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for j := range values {
		m.Tick()
		if j == 1 {
			if err := m.WaitIdle(time.Second); err != nil {
				t.Fatal(err)
			}
			if fires.Load() != 0 {
				t.Fatal("transient single-tick breach fired despite Debounce=3")
			}
		}
	}
	if err := m.WaitIdle(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := fires.Load(); got != 1 {
		t.Fatalf("sustained breach fired %d adaptations, want 1", got)
	}
}

// TestRearmDebounceIgnoresLuckyWindow: with Debounce=2, a single clear
// tick while latched — e.g. a sparse drop-free window sampled while the
// triggered adaptation is itself throttling the link — does not re-arm
// the rule; only a sustained recovery does.
func TestRearmDebounceIgnoresLuckyWindow(t *testing.T) {
	values := []float64{
		0.30, 0.30, // sustained breach -> fire
		0.00,       // one lucky clear window: must NOT re-arm
		0.30, 0.30, // breach persists: still latched, must not fire
		0.00, 0.00, // sustained recovery -> re-arm
		0.30, 0.30, // a genuinely new incident -> second fire
	}
	i := 0
	var fires atomic.Int64
	reg := telemetry.NewRegistry()
	m, err := New(reg, Rule{
		Name:      "loss",
		Source:    func() float64 { v := values[i%len(values)]; i++; return v },
		Threshold: 0.20,
		Clear:     0.10,
		Debounce:  2,
		Trigger:   func() error { fires.Add(1); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for range values {
		m.Tick()
	}
	if err := m.WaitIdle(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := fires.Load(); got != 2 {
		t.Fatalf("fired %d adaptations, want 2 (one per genuine incident)", got)
	}
	if got := reg.Counter("monitor.rearms").Value(); got != 1 {
		t.Fatalf("rearms counter = %d, want 1", got)
	}
}

// TestBreachDuringAdaptationQueues: a rule that fires while another
// trigger is still executing waits its turn; triggers never overlap.
func TestBreachDuringAdaptationQueues(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	var running atomic.Int32
	var maxRunning atomic.Int32
	trigger := func() error {
		n := running.Add(1)
		if n > maxRunning.Load() {
			maxRunning.Store(n)
		}
		started <- struct{}{}
		<-release
		running.Add(-1)
		return nil
	}
	aVal, bVal := 0.0, 0.0
	m, err := New(telemetry.NewRegistry(),
		Rule{Name: "a", Source: func() float64 { return aVal }, Threshold: 1, Trigger: trigger},
		Rule{Name: "b", Source: func() float64 { return bVal }, Threshold: 1, Trigger: trigger},
	)
	if err != nil {
		t.Fatal(err)
	}

	aVal = 2
	m.Tick() // fire a; its trigger blocks on release
	<-started
	bVal = 2
	m.Tick() // fire b while a's trigger is in flight: must queue
	select {
	case <-started:
		t.Fatal("second trigger started while first still running")
	case <-time.After(20 * time.Millisecond):
	}
	if m.Idle() {
		t.Fatal("monitor idle with a queued firing")
	}
	release <- struct{}{} // finish a
	<-started             // b starts only now
	release <- struct{}{} // finish b
	if err := m.WaitIdle(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := maxRunning.Load(); got != 1 {
		t.Fatalf("max concurrent triggers = %d, want 1", got)
	}
	m.Close()
}

// TestTriggerErrorCountedAndMonitorSurvives: a failing trigger is
// recorded but does not wedge the dispatcher.
func TestTriggerErrorCountedAndMonitorSurvives(t *testing.T) {
	reg := telemetry.NewRegistry()
	val := 2.0
	calls := 0
	m, err := New(reg, Rule{
		Name:      "r",
		Source:    func() float64 { return val },
		Threshold: 1,
		Clear:     0.5,
		Trigger: func() error {
			calls++
			if calls == 1 {
				return errors.New("manager busy")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Tick() // fire -> trigger fails
	if err := m.WaitIdle(time.Second); err != nil {
		t.Fatal(err)
	}
	val = 0.1
	m.Tick() // re-arm
	val = 2.0
	m.Tick() // fire again -> succeeds
	if err := m.WaitIdle(time.Second); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("trigger ran %d times, want 2", calls)
	}
	if reg.Counter("monitor.triggers.failed").Value() != 1 || reg.Counter("monitor.triggers.completed").Value() != 1 {
		t.Fatalf("failure accounting wrong: failed=%d completed=%d",
			reg.Counter("monitor.triggers.failed").Value(),
			reg.Counter("monitor.triggers.completed").Value())
	}
}

// TestStartTicks: the wall-clock loop actually evaluates rules.
func TestStartTicks(t *testing.T) {
	reg := telemetry.NewRegistry()
	var fires atomic.Int64
	m, err := New(reg, Rule{
		Name:      "r",
		Source:    func() float64 { return 1 },
		Threshold: 1,
		Trigger:   func() error { fires.Add(1); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start(time.Millisecond)
	deadline := time.Now().Add(time.Second)
	for fires.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	m.Close()
	if fires.Load() == 0 {
		t.Fatal("Start loop never fired the rule")
	}
	if reg.Counter("monitor.ticks").Value() == 0 {
		t.Fatal("no ticks counted")
	}
}

func TestRuleValidation(t *testing.T) {
	reg := telemetry.NewRegistry()
	src := func() float64 { return 0 }
	trg := func() error { return nil }
	cases := []struct {
		name  string
		rules []Rule
	}{
		{"no rules", nil},
		{"empty name", []Rule{{Source: src, Trigger: trg}}},
		{"no source", []Rule{{Name: "r", Trigger: trg}}},
		{"no trigger", []Rule{{Name: "r", Source: src}}},
		{"clear above threshold", []Rule{{Name: "r", Source: src, Trigger: trg, Threshold: 0.2, Clear: 0.5}}},
		{"duplicate", []Rule{
			{Name: "r", Source: src, Trigger: trg, Threshold: 1},
			{Name: "r", Source: src, Trigger: trg, Threshold: 1},
		}},
	}
	for _, c := range cases {
		if m, err := New(reg, c.rules...); err == nil {
			m.Close()
			t.Errorf("%s: New accepted invalid rules", c.name)
		}
	}
}

// TestLossRateWindowed: the loss-rate source folds per-window loss into
// an EWMA, holds its estimate over silent windows, and decays — rather
// than snaps — to zero once the link heals.
func TestLossRateWindowed(t *testing.T) {
	g := netsim.NewGroup(7)
	defer g.Close()
	// 100% loss: every datagram sent is dropped deterministically.
	// Buffer sized for every datagram this test sends; nothing drains it.
	sub, err := g.Subscribe("hh", netsim.LinkProfile{LossRate: 1}, 128)
	if err != nil {
		t.Fatal(err)
	}
	src := LossRate(sub)
	if v := src(); v != 0 {
		t.Fatalf("loss on silent window = %v, want 0", v)
	}
	for i := 0; i < 10; i++ {
		if err := g.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if v := src(); v != 1 {
		t.Fatalf("loss with total drop = %v, want 1", v)
	}
	// A quiet window holds the last reading: silence is not health.
	if v := src(); v != 1 {
		t.Fatalf("loss after quiet window = %v, want held 1", v)
	}
	// Heal the link: clean windows decay the estimate toward zero rather
	// than snapping there — one good window is not a recovery.
	if err := g.SetLossRate("hh", 0); err != nil {
		t.Fatal(err)
	}
	prev, total := 1.0, 0
	for i := 0; i < 8; i++ {
		for j := 0; j < 10; j++ {
			if err := g.Send([]byte{byte(j)}); err != nil {
				t.Fatal(err)
			}
		}
		total += 10
		waitForDelivered(t, sub, total)
		v := src()
		if v >= prev {
			t.Fatalf("healed window %d: estimate %v did not decay from %v", i, v, prev)
		}
		prev = v
	}
	if prev > 0.05 {
		t.Fatalf("estimate %v still above 0.05 after 8 clean windows", prev)
	}
}

func waitForDelivered(t *testing.T, sub *netsim.Subscription, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		delivered, _ := sub.Stats()
		if delivered >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d, want %d", delivered, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCounterRate(t *testing.T) {
	reg := telemetry.NewRegistry()
	src := CounterRate(reg, "c")
	reg.Counter("c").Add(5)
	if v := src(); v != 5 {
		t.Fatalf("first window = %v, want 5", v)
	}
	if v := src(); v != 0 {
		t.Fatalf("quiet window = %v, want 0", v)
	}
	reg.Counter("c").Add(3)
	if v := src(); v != 3 {
		t.Fatalf("next window = %v, want 3", v)
	}
}
