// Package tlogic implements the paper's future-work proposal (Sec. 7):
// deriving safe states automatically from temporal specifications instead
// of hand-identifying them. A specification is a set of response rules
//
//	after <trigger> expect <discharge>
//
// over the component's observable events, instantiated per correlation
// key (e.g. per packet sequence number). Each trigger event creates an
// *obligation* that the matching discharge event fulfils. The paper:
// "if all the obligations of the formula are fulfilled in a state, then
// the state can be automatically identified as a safe state" — so the
// monitor reports Safe exactly when no obligation is outstanding.
//
// This is the response fragment of linear temporal logic,
// G(trigger → F discharge), evaluated incrementally over the event
// stream, which is precisely the shape critical communication segments
// take (a segment begins, must end).
package tlogic

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Rule is one response obligation: every Trigger event must eventually be
// followed by a Discharge event with the same correlation key.
type Rule struct {
	// Trigger is the event name that opens an obligation.
	Trigger string
	// Discharge is the event name that fulfils it.
	Discharge string
}

// String renders the rule in specification syntax.
func (r Rule) String() string {
	return "after " + r.Trigger + " expect " + r.Discharge
}

// ParseSpec parses a specification: one rule per line (or separated by
// semicolons), each "after <trigger> expect <discharge>". Blank lines and
// lines starting with '#' are ignored.
func ParseSpec(src string) ([]Rule, error) {
	var rules []Rule
	split := func(r rune) bool { return r == '\n' || r == ';' }
	for _, line := range strings.FieldsFunc(src, split) {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 || fields[0] != "after" || fields[2] != "expect" {
			return nil, fmt.Errorf("tlogic: malformed rule %q (want \"after <trigger> expect <discharge>\")", line)
		}
		rules = append(rules, Rule{Trigger: fields[1], Discharge: fields[3]})
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("tlogic: empty specification")
	}
	return rules, nil
}

// Monitor evaluates a specification over an event stream and reports
// whether the monitored component is currently in a safe state. It is
// safe for concurrent use.
type Monitor struct {
	mu sync.Mutex
	// byTrigger and byDischarge index the rules.
	byTrigger   map[string][]int
	byDischarge map[string][]int
	rules       []Rule
	// pending[ruleIdx][key] counts open obligations.
	pending []map[uint64]int
	open    int
	// waiters are notified when open drops to zero.
	waiters []chan struct{}

	observed uint64
}

// NewMonitor builds a monitor for the given rules.
func NewMonitor(rules []Rule) (*Monitor, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("tlogic: no rules")
	}
	m := &Monitor{
		byTrigger:   make(map[string][]int),
		byDischarge: make(map[string][]int),
		rules:       append([]Rule(nil), rules...),
		pending:     make([]map[uint64]int, len(rules)),
	}
	for i, r := range rules {
		if r.Trigger == "" || r.Discharge == "" {
			return nil, fmt.Errorf("tlogic: rule %d has empty event name", i)
		}
		if r.Trigger == r.Discharge {
			return nil, fmt.Errorf("tlogic: rule %d discharges its own trigger %q", i, r.Trigger)
		}
		m.byTrigger[r.Trigger] = append(m.byTrigger[r.Trigger], i)
		m.byDischarge[r.Discharge] = append(m.byDischarge[r.Discharge], i)
		m.pending[i] = make(map[uint64]int)
	}
	if cycle := findCycle(m.rules, m.byTrigger); cycle != nil {
		parts := make([]string, len(cycle))
		for i, idx := range cycle {
			parts[i] = m.rules[idx].String()
		}
		return nil, fmt.Errorf("tlogic: contradictory rules: once triggered, the safe state is unreachable (every discharge re-triggers the next rule in the cycle: %s)",
			strings.Join(parts, " -> "))
	}
	return m, nil
}

// findCycle detects contradictory rule sets. There is an edge i -> j when
// rule i's discharge event is rule j's trigger: fulfilling i's obligation
// necessarily opens j's. A cycle in that graph means that after any rule
// in the cycle triggers, no event sequence ever returns the monitor to
// Safe — the specification contradicts its own purpose of identifying
// safe states. Returns the rule indices of one cycle, or nil.
func findCycle(rules []Rule, byTrigger map[string][]int) []int {
	const (
		unvisited = iota
		inStack
		done
	)
	state := make([]int, len(rules))
	var stack []int
	var dfs func(i int) []int
	dfs = func(i int) []int {
		state[i] = inStack
		stack = append(stack, i)
		for _, j := range byTrigger[rules[i].Discharge] {
			switch state[j] {
			case inStack:
				for k, idx := range stack {
					if idx == j {
						return append(append([]int(nil), stack[k:]...), j)
					}
				}
			case unvisited:
				if c := dfs(j); c != nil {
					return c
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[i] = done
		return nil
	}
	for i := range rules {
		if state[i] == unvisited {
			if c := dfs(i); c != nil {
				return c
			}
		}
	}
	return nil
}

// MustMonitor parses the specification text and builds the monitor,
// panicking on error — for statically known specifications.
func MustMonitor(spec string) *Monitor {
	rules, err := ParseSpec(spec)
	if err != nil {
		panic(err)
	}
	m, err := NewMonitor(rules)
	if err != nil {
		panic(err)
	}
	return m
}

// Observe feeds one event with its correlation key into the monitor.
func (m *Monitor) Observe(event string, key uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observed++
	for _, i := range m.byTrigger[event] {
		m.pending[i][key]++
		m.open++
	}
	for _, i := range m.byDischarge[event] {
		if m.pending[i][key] > 0 {
			m.pending[i][key]--
			if m.pending[i][key] == 0 {
				delete(m.pending[i], key)
			}
			m.open--
		}
		// A discharge with no matching trigger is ignored: the response
		// fragment places no obligation on unsolicited discharges.
	}
	if m.open == 0 && len(m.waiters) > 0 {
		for _, w := range m.waiters {
			close(w)
		}
		m.waiters = nil
	}
}

// Safe reports whether every obligation is currently fulfilled — the
// automatically derived local safe state.
func (m *Monitor) Safe() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.open == 0
}

// Outstanding returns the number of open obligations.
func (m *Monitor) Outstanding() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.open
}

// Observed returns the total number of events seen.
func (m *Monitor) Observed() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.observed
}

// Obligations describes the currently open obligations, for diagnostics:
// one line per rule with open keys, deterministic order.
func (m *Monitor) Obligations() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for i, r := range m.rules {
		if len(m.pending[i]) == 0 {
			continue
		}
		keys := make([]uint64, 0, len(m.pending[i]))
		for k := range m.pending[i] {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		parts := make([]string, len(keys))
		for j, k := range keys {
			parts[j] = fmt.Sprintf("%d", k)
		}
		out = append(out, fmt.Sprintf("%s: keys [%s]", r, strings.Join(parts, " ")))
	}
	return out
}

// WaitSafe blocks until the monitor reports a safe state or ctx expires.
// It is shaped to plug in wherever a hand-written drain condition would
// go (e.g. as a SocketProcess drain hook).
func (m *Monitor) WaitSafe(ctx context.Context) error {
	for {
		m.mu.Lock()
		if m.open == 0 {
			m.mu.Unlock()
			return nil
		}
		w := make(chan struct{})
		m.waiters = append(m.waiters, w)
		m.mu.Unlock()

		select {
		case <-w:
			// Safe was reached at some instant; loop to confirm it still
			// holds (new triggers may have opened since).
		case <-ctx.Done():
			return fmt.Errorf("tlogic: safe state not reached: %w (outstanding: %s)",
				ctx.Err(), strings.Join(m.Obligations(), "; "))
		}
	}
}

// Reset clears all obligations; used when the monitored component is
// restarted from a known-idle state.
func (m *Monitor) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.pending {
		m.pending[i] = make(map[uint64]int)
	}
	m.open = 0
	for _, w := range m.waiters {
		close(w)
	}
	m.waiters = nil
}

// Event is one entry of an offline trace: a named observable event with
// its correlation key.
type Event struct {
	Name string
	Key  uint64
}

// Divergence records one trace position where the specification-derived
// safe state disagrees with a hand-identified one.
type Divergence struct {
	// Index is the position in the trace, after whose event the states
	// were compared.
	Index int
	// Event is the trace entry at that position.
	Event Event
	// Derived is the monitor's verdict; Hand is the hand-identified one.
	Derived, Hand bool
	// Outstanding lists the open obligations when Derived is false.
	Outstanding []string
}

// String renders the divergence for diagnostics.
func (d Divergence) String() string {
	s := fmt.Sprintf("after event %d (%s key %d): derived safe=%v, hand-identified safe=%v",
		d.Index, d.Event.Name, d.Event.Key, d.Derived, d.Hand)
	if len(d.Outstanding) > 0 {
		s += " (outstanding: " + strings.Join(d.Outstanding, "; ") + ")"
	}
	return s
}

// CompareTrace replays a trace on a fresh monitor built from rules and
// compares the derived safe state after every event against the
// hand-identified markings (handSafe[i] is whether the state after
// trace[i] was identified safe by hand). Every disagreement is reported —
// a rule set whose derived safe states diverge from the hand-identified
// ones must not be silently accepted as equivalent.
func CompareTrace(rules []Rule, trace []Event, handSafe []bool) ([]Divergence, error) {
	if len(trace) != len(handSafe) {
		return nil, fmt.Errorf("tlogic: trace has %d events but %d hand-identified markings", len(trace), len(handSafe))
	}
	m, err := NewMonitor(rules)
	if err != nil {
		return nil, err
	}
	var out []Divergence
	for i, ev := range trace {
		m.Observe(ev.Name, ev.Key)
		if derived := m.Safe(); derived != handSafe[i] {
			out = append(out, Divergence{
				Index: i, Event: ev,
				Derived: derived, Hand: handSafe[i],
				Outstanding: m.Obligations(),
			})
		}
	}
	return out, nil
}
