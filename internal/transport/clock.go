package transport

import (
	"context"
	"time"

	"repro/internal/protocol"
)

// Clock abstracts wall-clock reads for components that timestamp protocol
// traces and compute wait deadlines. Production code uses SystemClock; the
// deterministic explorer (internal/explore) injects a logical clock so
// that two runs of the same schedule produce byte-identical traces and no
// code path ever sleeps on real time.
type Clock interface {
	// Now returns the current (possibly logical) time.
	Now() time.Time
}

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

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
