package agent

import (
	"context"
	"sync"
	"time"

	"repro/internal/protocol"
)

// reset runs the process' Reset under the agent's one reset timer, armed on
// the agent's clock on first use, re-armed for every reset and stopped when
// Reset returns. The reset's only allocation is its context, ended with
// Canceled once Reset has returned, so a context kept past Reset reads as
// cancelled.
func (a *Agent) reset(step protocol.Step) error {
	c := &resetCtx{deadline: a.opts.Clock.Now().Add(a.opts.ResetTimeout)}
	c.fns = c.slots[:0]
	a.mu.Lock()
	if a.rtimer == nil {
		a.rtimer = a.opts.Clock.AfterFunc(a.opts.ResetTimeout, a.resetExpired)
	} else {
		a.rtimer.Reset(a.opts.ResetTimeout)
	}
	a.rarmed++
	a.rcur = c
	a.mu.Unlock()
	err := a.proc.Reset(c, step)
	a.mu.Lock()
	if a.rtimer.Stop() {
		a.rarmed--
	}
	a.rcur = nil
	a.mu.Unlock()
	c.end(context.Canceled)
	return err
}

// resetExpired is the timer's callback. A firing that lost the race with
// Reset's return may run after the next reset re-armed the timer and must
// not end that reset, so it acts only as the last arming outstanding:
// every later one was stopped, or fired first and left the act to it.
func (a *Agent) resetExpired() {
	a.mu.Lock()
	a.rarmed--
	c, last := a.rcur, a.rarmed == 0
	a.mu.Unlock()
	if last && c != nil {
		c.end(context.DeadlineExceeded)
	}
}

// resetCtx is one reset's context: DeadlineExceeded when the agent's timer
// fires, Canceled once Reset has returned, and once ended it stays so.
type resetCtx struct {
	deadline time.Time
	mu       sync.Mutex
	done     chan struct{} // made by the first Done, as a cancelCtx does
	err      error
	// fns holds the AfterFunc registrations, in slots until a reset has
	// had four; a slot is never reused, so a stop frees only its own.
	fns   []func()
	slots [4]func()
}

func (c *resetCtx) Deadline() (time.Time, bool) { return c.deadline, true }
func (c *resetCtx) Value(any) any               { return nil }

func (c *resetCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		if c.err != nil {
			close(c.done)
		}
	}
	return c.done
}

func (c *resetCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// AfterFunc runs f when c ends. context.AfterFunc and context.WithCancel
// use it instead of starting a goroutine per registration; f runs on the
// goroutine that ends c, as a cancelCtx cancels its children.
func (c *resetCtx) AfterFunc(f func()) (stop func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		go f()
		return func() bool { return false }
	}
	i := len(c.fns)
	c.fns = append(c.fns, f)
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		ok := i < len(c.fns) && c.fns[i] != nil
		if ok {
			c.fns[i] = nil
		}
		return ok
	}
}

// end ends c with err, unless it has ended, and runs its registrations.
func (c *resetCtx) end(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		if c.done != nil {
			close(c.done)
		}
	}
	fns := c.fns // nil once ended
	c.fns = nil
	c.mu.Unlock()
	for _, f := range fns {
		if f != nil {
			f()
		}
	}
}
