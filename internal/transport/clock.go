package transport

import (
	"context"
	"time"

	"repro/internal/protocol"
)

// Clock is the one source of time for the control plane: the timestamps of
// protocol traces, the deadlines of protocol waits, retry backoff and the
// agent's reset deadline. Production code uses SystemClock; the explorer
// (internal/explore) and the fleet simulator inject simnet.ManualClock, so
// two runs of the same schedule produce byte-identical traces and no code
// path waits on real time.
type Clock interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Time
	// Sleep waits until d has passed on this clock, or until ctx ends, in
	// which case it returns ctx.Err().
	Sleep(ctx context.Context, d time.Duration) error
	// AfterFunc calls f once d has passed on this clock, unless the
	// returned timer is stopped first.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a timer armed by Clock.AfterFunc. *time.Timer satisfies it.
type Timer interface {
	// Stop prevents the call; it reports false if the call already ran
	// or the timer was stopped.
	Stop() bool
	// Reset re-arms the timer to call again d from now; it reports
	// whether the timer was armed.
	Reset(d time.Duration) bool
}

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// Sleep is time.Sleep when ctx can never end, so a wait per datagram
// allocates nothing; otherwise it races a timer against ctx.
func (systemClock) Sleep(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (systemClock) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// SystemClock is the wall clock. It is the default everywhere a Clock can
// be injected.
var SystemClock Clock = systemClock{}

// Rearm arms t — the one timer of a loop that waits again and again, nil the
// first time — for d and returns it. The caller has stopped it or seen it
// fire; its channel may still hold that tick, hence the drain.
func Rearm(t *time.Timer, d time.Duration) *time.Timer {
	if t == nil {
		return time.NewTimer(d)
	}
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
	return t
}

// RecvStatus reports how a SyncEndpoint.Recv call ended.
type RecvStatus int

const (
	// RecvOK means a message was received.
	RecvOK RecvStatus = iota
	// RecvTimeout means the deadline passed with no message.
	RecvTimeout
	// RecvAborted means the context was cancelled.
	RecvAborted
	// RecvClosed means the endpoint is closed.
	RecvClosed
)

// SyncEndpoint is an Endpoint that mediates blocking receives itself
// instead of exposing a raw inbox channel. The manager prefers Recv over
// a channel select when its endpoint implements this interface.
//
// This is the scheduler injection point of the deterministic explorer:
// inside Recv the virtual transport knows the caller is blocked and can
// run its scheduler — delivering messages to agents, injecting failures,
// advancing the logical clock — entirely on the caller's goroutine, with
// no real concurrency and therefore no nondeterminism.
type SyncEndpoint interface {
	Endpoint
	// Recv blocks until a message arrives (RecvOK), the deadline passes
	// (RecvTimeout), ctx is cancelled (RecvAborted), or the endpoint
	// closes (RecvClosed).
	Recv(ctx context.Context, deadline time.Time) (protocol.Message, RecvStatus)
}
