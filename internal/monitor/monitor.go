// Package monitor closes the adaptation control loop. The paper's
// protocol begins when the manager "receives an adaptation request" —
// who issues the request is left to the user or an external monitoring
// service. This package is that service: it watches live metric sources
// (netsim link statistics, telemetry gauges and counter rates) against
// declarative threshold rules and, when a rule fires, requests an
// adaptation through the caller-supplied trigger — typically a
// planner→manager Execute call — completing monitor → plan → act.
//
// Two properties make the loop safe to leave always-on:
//
//   - Hysteresis with debounce. A rule fires only after its source has
//     breached the threshold for Debounce consecutive ticks, and then
//     latches: it cannot fire again until the source has stayed at the
//     Clear level for Debounce consecutive ticks. An oscillating signal
//     therefore produces exactly one adaptation, not a storm (see
//     TestOscillationFiresOnce), and a lone clean window sampled while
//     the adaptation itself is throttling traffic cannot spuriously
//     re-arm the rule.
//
//   - Serial triggers. Rule firings are queued and dispatched one at a
//     time by a single goroutine, so a breach observed while an
//     adaptation is still in flight waits its turn instead of colliding
//     with the manager's ErrBusy serialization.
//
// Evaluation is explicit: Tick() runs one evaluation round, which is
// what tests drive deterministically; Start(interval) runs Tick on a
// wall-clock ticker for live nodes.
package monitor

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Rule is one declarative threshold watch.
type Rule struct {
	// Name identifies the rule in metrics, events, and flight records.
	Name string
	// Source samples the watched signal. It is called once per Tick,
	// always from the same goroutine.
	Source func() float64
	// Threshold fires the rule when Source() >= Threshold (after
	// debounce).
	Threshold float64
	// Clear re-arms a fired rule when Source() <= Clear. The zero value
	// defaults to Threshold (no hysteresis band); set it below Threshold
	// to require genuine recovery before the rule may fire again.
	Clear float64
	// Debounce is how many consecutive breaching ticks are required
	// before the rule fires, and symmetrically how many consecutive
	// clear ticks (Source() <= Clear) a latched rule needs before it
	// re-arms. Zero means 1. A tick on the wrong side of the line
	// resets the streak.
	Debounce int
	// Trigger is the adaptation request. It runs on the monitor's
	// dispatch goroutine, serially with every other rule's trigger; its
	// error is counted and recorded but does not stop the monitor.
	Trigger func() error
}

// ruleState is a Rule plus its evaluation state. The state fields are
// only touched by Tick (single evaluation goroutine).
type ruleState struct {
	Rule
	armed  bool
	streak int
}

// Monitor evaluates rules and dispatches their triggers serially.
// Create with New, drive with Tick or Start, stop with Close.
type Monitor struct {
	tel   *telemetry.Registry
	rules []*ruleState

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*ruleState
	busy   bool // a trigger is executing right now
	closed bool

	dispatcherDone chan struct{}
	tickerStop     chan struct{}
	tickerDone     chan struct{}
	closeOnce      sync.Once
}

// New builds a monitor over the given rules. tel may be nil (metrics and
// flight events are then dropped); every rule needs a Name, a Source and
// a Trigger, and a coherent hysteresis band (Clear <= Threshold).
func New(tel *telemetry.Registry, rules ...Rule) (*Monitor, error) {
	if len(rules) == 0 {
		return nil, errors.New("monitor: no rules")
	}
	m := &Monitor{
		tel:            tel,
		dispatcherDone: make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	seen := map[string]bool{}
	for _, r := range rules {
		if r.Name == "" {
			return nil, errors.New("monitor: rule with empty name")
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("monitor: duplicate rule %q", r.Name)
		}
		seen[r.Name] = true
		if r.Source == nil || r.Trigger == nil {
			return nil, fmt.Errorf("monitor: rule %q needs a Source and a Trigger", r.Name)
		}
		if r.Clear == 0 {
			r.Clear = r.Threshold
		}
		if r.Clear > r.Threshold {
			return nil, fmt.Errorf("monitor: rule %q has Clear %v above Threshold %v", r.Name, r.Clear, r.Threshold)
		}
		if r.Debounce <= 0 {
			r.Debounce = 1
		}
		m.rules = append(m.rules, &ruleState{Rule: r, armed: true})
	}
	go m.dispatch()
	return m, nil
}

// Tick runs one evaluation round: every rule's source is sampled, streaks
// and hysteresis latches advance, and rules that fire are queued for the
// dispatcher. Tick never blocks on triggers. Not safe for concurrent
// Tick calls; the Start loop and tests each use a single caller.
func (m *Monitor) Tick() {
	m.tel.Counter("monitor.ticks").Inc()
	for _, r := range m.rules {
		v := r.Source()
		// Mirror the sampled value into a gauge (in thousandths, gauges
		// are integers) so the always-on FTDC capture records the exact
		// signal the monitor acted on.
		m.tel.Gauge("monitor." + r.Name + ".permille").Set(int64(v * 1000))
		if !r.armed {
			// Re-arm is debounced symmetrically with fire: one lucky
			// window below Clear — easy to produce while an in-flight
			// adaptation is blocking the very traffic being measured —
			// must not count as recovery.
			if v > r.Clear {
				r.streak = 0
				continue
			}
			r.streak++
			if r.streak < r.Debounce {
				continue
			}
			r.armed = true
			r.streak = 0
			m.tel.Counter("monitor.rearms").Inc()
			m.event(r, fmt.Sprintf("monitor: rule %s re-armed (value %.3f <= clear %.3f)", r.Name, v, r.Clear))
			continue
		}
		if v < r.Threshold {
			r.streak = 0
			continue
		}
		r.streak++
		if r.streak < r.Debounce {
			continue
		}
		// Fire: latch until the source recovers to Clear, and queue the
		// trigger for serial dispatch.
		r.armed = false
		r.streak = 0
		m.tel.Counter("monitor.fires").Inc()
		m.tel.Counter("monitor.fires." + r.Name).Inc()
		m.event(r, fmt.Sprintf("monitor: rule %s fired (value %.3f >= threshold %.3f)", r.Name, v, r.Threshold))
		// A firing is an incident like a rollback: the always-on capture
		// takes a row and fsyncs now, while the rule's gauge shows the breach.
		m.tel.Flight().AutoDump("monitor fire: " + r.Name)
		m.enqueue(r)
	}
}

// event records a monitor decision on the telemetry event stream and in
// the flight recorder, so post-mortems show why an adaptation started.
func (m *Monitor) event(r *ruleState, detail string) {
	if !m.tel.Enabled() {
		return
	}
	m.tel.Event("monitor", detail)
	if fr := m.tel.Flight(); fr.Enabled() {
		fr.Record(telemetry.FlightEvent{
			Kind:    telemetry.FlightState,
			Lamport: m.tel.LamportNow(),
			TraceID: m.tel.ActiveTrace(),
			Detail:  detail,
		})
	}
}

func (m *Monitor) enqueue(r *ruleState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.queue = append(m.queue, r)
	m.tel.Gauge("monitor.queue.depth").Set(int64(len(m.queue)))
	m.cond.Broadcast()
}

// dispatch is the single trigger runner: one firing at a time, in queue
// order. Serialization here is what keeps a breach-during-adaptation
// from racing the manager (which would reject the overlap with ErrBusy
// and lose the request).
func (m *Monitor) dispatch() {
	defer close(m.dispatcherDone)
	m.mu.Lock()
	for {
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.queue) == 0 && m.closed {
			m.mu.Unlock()
			return
		}
		r := m.queue[0]
		m.queue = m.queue[1:]
		m.busy = true
		m.tel.Gauge("monitor.queue.depth").Set(int64(len(m.queue)))
		m.mu.Unlock()

		m.tel.Counter("monitor.triggers.started").Inc()
		if err := r.Trigger(); err != nil {
			m.tel.Counter("monitor.triggers.failed").Inc()
			m.event(r, fmt.Sprintf("monitor: trigger for rule %s failed: %v", r.Name, err))
		} else {
			m.tel.Counter("monitor.triggers.completed").Inc()
		}

		m.mu.Lock()
		m.busy = false
		m.cond.Broadcast()
	}
}

// Start runs Tick on a ticker at the given interval (<= 0 means one
// second) until Close. It may be called at most once.
func (m *Monitor) Start(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	m.tickerStop = make(chan struct{})
	m.tickerDone = make(chan struct{})
	go func() {
		defer close(m.tickerDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-m.tickerStop:
				return
			case <-t.C:
				m.Tick()
			}
		}
	}()
}

// Idle reports whether the monitor has no queued firings and no trigger
// in flight.
func (m *Monitor) Idle() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue) == 0 && !m.busy
}

// WaitIdle blocks until the monitor is idle (queue drained, no trigger
// running) or the timeout elapses.
func (m *Monitor) WaitIdle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if m.Idle() {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("monitor: WaitIdle timed out")
		}
		time.Sleep(time.Millisecond)
	}
}

// Close stops the ticker (if started) and the dispatcher. A trigger in
// flight runs to completion; queued firings that have not started are
// still dispatched before the dispatcher exits. Idempotent.
func (m *Monitor) Close() {
	m.closeOnce.Do(func() {
		if m.tickerStop != nil {
			close(m.tickerStop)
			<-m.tickerDone
		}
		m.mu.Lock()
		m.closed = true
		m.cond.Broadcast()
		m.mu.Unlock()
		<-m.dispatcherDone
	})
}
