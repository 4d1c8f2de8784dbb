package simnet

import (
	"context"
	"slices"
	"time"

	"repro/internal/transport"
)

// ManualClock is a transport.Clock that moves only when told to: by
// Advance, AdvanceTo or Sleep. Its timers fire in deadline order, ties in
// arming order, on whichever goroutine moves it, and each sees Now read
// its own deadline. Like the worlds that drive it, it is single-goroutine.
type ManualClock struct {
	now    time.Time
	timers []*manualTimer // armed, in arming order
}

// NewManualClock returns a clock reading start.
func NewManualClock(start time.Time) *ManualClock { return &ManualClock{now: start} }

// Now returns the clock's current reading.
func (c *ManualClock) Now() time.Time { return c.now }

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) { c.AdvanceTo(c.now.Add(d)) }

// AdvanceTo moves the clock to t; a t in the past leaves it alone.
func (c *ManualClock) AdvanceTo(t time.Time) { c.run(context.Background(), t) }

// Sleep advances the clock by d, stopping early, with ctx.Err(), at the
// timer whose call ends ctx.
func (c *ManualClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.run(ctx, c.now.Add(d))
}

// AfterFunc arms a timer that calls f once the clock reaches now + d.
func (c *ManualClock) AfterFunc(d time.Duration, f func()) transport.Timer {
	t := &manualTimer{c: c, f: f}
	t.Reset(d)
	return t
}

// run fires every timer due by t, earliest first — including one armed by
// a firing callback — and leaves the clock at t, unless ctx ends first.
func (c *ManualClock) run(ctx context.Context, t time.Time) error {
	for {
		i := -1
		for j, tm := range c.timers {
			if !tm.at.After(t) && (i < 0 || tm.at.Before(c.timers[i].at)) {
				i = j
			}
		}
		if i < 0 {
			break
		}
		tm := c.timers[i]
		c.timers = slices.Delete(c.timers, i, i+1)
		if tm.at.After(c.now) {
			c.now = tm.at
		}
		tm.f()
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if t.After(c.now) {
		c.now = t
	}
	return nil
}

// manualTimer is one ManualClock.AfterFunc timer.
type manualTimer struct {
	c  *ManualClock
	at time.Time
	f  func()
}

func (t *manualTimer) Stop() bool {
	i := slices.Index(t.c.timers, t)
	if i < 0 {
		return false
	}
	t.c.timers = slices.Delete(t.c.timers, i, i+1)
	return true
}

func (t *manualTimer) Reset(d time.Duration) bool {
	armed := t.Stop()
	t.at = t.c.now.Add(d)
	t.c.timers = append(t.c.timers, t)
	return armed
}
