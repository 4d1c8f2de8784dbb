package simnet

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// firings records which timers fired and what the clock read when each did.
type firings struct {
	c   *ManualClock
	got []string
	at  []time.Duration
}

func (f *firings) arm(name string) func() {
	return func() {
		f.got = append(f.got, name)
		f.at = append(f.at, f.c.Now().Sub(time.Unix(0, 0)))
	}
}

func (f *firings) check(t *testing.T, how string, names []string, at []time.Duration) {
	t.Helper()
	if !reflect.DeepEqual(f.got, names) || !reflect.DeepEqual(f.at, at) {
		t.Errorf("%s fired %v at %v, want %v at %v", how, f.got, f.at, names, at)
	}
	f.got, f.at = nil, nil
}

// TestManualClockFiresInDeadlineOrder: whichever call moves the clock fires
// every timer due within the move, earliest deadline first and ties in
// arming order, each seeing the clock at its own deadline; a timer due
// later waits for a later move.
func TestManualClockFiresInDeadlineOrder(t *testing.T) {
	for _, tc := range []struct {
		how  string
		move func(c *ManualClock)
	}{
		{"Advance", func(c *ManualClock) { c.Advance(30 * time.Millisecond) }},
		{"AdvanceTo", func(c *ManualClock) { c.AdvanceTo(time.Unix(0, 0).Add(30 * time.Millisecond)) }},
		{"Sleep", func(c *ManualClock) { _ = c.Sleep(context.Background(), 30*time.Millisecond) }},
	} {
		c := NewManualClock(time.Unix(0, 0))
		f := &firings{c: c}
		c.AfterFunc(20*time.Millisecond, f.arm("c"))
		c.AfterFunc(10*time.Millisecond, f.arm("a"))
		c.AfterFunc(20*time.Millisecond, f.arm("d"))
		c.AfterFunc(40*time.Millisecond, f.arm("e"))
		tc.move(c)
		f.check(t, tc.how, []string{"a", "c", "d"}, []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond})
		if got := c.Now().Sub(time.Unix(0, 0)); got != 30*time.Millisecond {
			t.Errorf("%s left the clock at %v, want 30ms", tc.how, got)
		}
		c.Advance(10 * time.Millisecond)
		f.check(t, tc.how+" then Advance", []string{"e"}, []time.Duration{40 * time.Millisecond})
	}
}

// TestManualClockStopAndReset: Stop before the deadline reports true and
// the call never runs; Reset re-arms from the current reading, and a timer
// that has fired reports false to Stop.
func TestManualClockStopAndReset(t *testing.T) {
	c := NewManualClock(time.Unix(0, 0))
	f := &firings{c: c}
	stopped := c.AfterFunc(10*time.Millisecond, f.arm("stopped"))
	if !stopped.Stop() {
		t.Error("Stop of an armed timer reports false")
	}
	if stopped.Stop() {
		t.Error("a second Stop reports true")
	}
	rearmed := c.AfterFunc(10*time.Millisecond, f.arm("rearmed"))
	c.Advance(5 * time.Millisecond)
	if !rearmed.Reset(10 * time.Millisecond) {
		t.Error("Reset of an armed timer reports false")
	}
	c.Advance(9 * time.Millisecond)
	f.check(t, "before the re-armed deadline", nil, nil)
	c.Advance(time.Millisecond)
	f.check(t, "at the re-armed deadline", []string{"rearmed"}, []time.Duration{15 * time.Millisecond})
	if rearmed.Stop() {
		t.Error("Stop of a fired timer reports true")
	}
	if rearmed.Reset(time.Millisecond) {
		t.Error("Reset of a fired timer reports true")
	}
	c.Advance(time.Millisecond)
	f.check(t, "a fired timer re-armed", []string{"rearmed"}, []time.Duration{16 * time.Millisecond})
}

// TestManualClockChainedTimer: a timer armed by a firing callback fires in
// the same move when it falls due within it, and not before its deadline.
func TestManualClockChainedTimer(t *testing.T) {
	c := NewManualClock(time.Unix(0, 0))
	f := &firings{c: c}
	c.AfterFunc(10*time.Millisecond, func() {
		f.arm("first")()
		c.AfterFunc(5*time.Millisecond, f.arm("chained"))
		c.AfterFunc(50*time.Millisecond, f.arm("late"))
	})
	c.Advance(20 * time.Millisecond)
	f.check(t, "Advance", []string{"first", "chained"}, []time.Duration{10 * time.Millisecond, 15 * time.Millisecond})
}

// TestManualClockSleepEndsWithItsContext: a Sleep stops at the timer whose
// call ends its context and returns the context's error, leaving later
// timers armed; a Sleep on an ended context does not move the clock.
func TestManualClockSleepEndsWithItsContext(t *testing.T) {
	c := NewManualClock(time.Unix(0, 0))
	f := &firings{c: c}
	ctx, cancel := context.WithCancel(context.Background())
	c.AfterFunc(10*time.Millisecond, cancel)
	c.AfterFunc(20*time.Millisecond, f.arm("later"))
	if err := c.Sleep(ctx, time.Second); err != context.Canceled {
		t.Fatalf("Sleep returned %v, want Canceled", err)
	}
	if got := c.Now().Sub(time.Unix(0, 0)); got != 10*time.Millisecond {
		t.Errorf("Sleep stopped the clock at %v, want 10ms", got)
	}
	if err := c.Sleep(ctx, time.Second); err != context.Canceled || c.Now().Sub(time.Unix(0, 0)) != 10*time.Millisecond {
		t.Errorf("Sleep on an ended context returned %v and moved the clock to %v", err, c.Now())
	}
	f.check(t, "Sleep", nil, nil)
	c.Advance(10 * time.Millisecond)
	f.check(t, "Advance", []string{"later"}, []time.Duration{20 * time.Millisecond})
}
