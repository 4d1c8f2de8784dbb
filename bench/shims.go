package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/action"
	"repro/internal/agent"
	"repro/internal/journal"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// The shims below are how the benchmark sees a layer from outside: each
// wraps one public interface, forwards every call, and counts or times it.
// End-to-end runs use them with a nil tracer (counts and the blocked dwell
// only); traced runs hand them a tracer.

// journalShim wraps a journal.Journal. onOpPath says the calls arrive on
// the goroutine running the adaptation (the leader's log); the standby's
// log is written from its stream goroutine and records async spans.
type journalShim struct {
	inner      journal.Journal
	t          *tracer
	appendName string
	syncName   string
	onOpPath   bool

	appends atomic.Int64
	syncs   atomic.Int64
}

func (j *journalShim) timed(name string, call func() error) error {
	if j.t == nil {
		return call()
	}
	if j.onOpPath {
		h := j.t.begin(name)
		defer j.t.end(h)
		return call()
	}
	start := time.Now()
	err := call()
	j.t.async(name, start, time.Now())
	return err
}

func (j *journalShim) Append(rec journal.Record) error {
	j.appends.Add(1)
	return j.timed(j.appendName, func() error { return j.inner.Append(rec) })
}

func (j *journalShim) Sync() error {
	j.syncs.Add(1)
	return j.timed(j.syncName, j.inner.Sync)
}

func (j *journalShim) Snapshot() ([]journal.Record, error) { return j.inner.Snapshot() }
func (j *journalShim) Close() error                        { return j.inner.Close() }

// captureMessages bounds how many protocol messages a traced run keeps for
// the codec replay.
const captureMessages = 512

// messageLog is shared by the endpoint shims of one deployment.
type messageLog struct {
	sent atomic.Int64

	mu       sync.Mutex
	captured []protocol.Message
}

func (l *messageLog) note(msg protocol.Message) {
	if l.sent.Add(1) > captureMessages {
		return
	}
	l.mu.Lock()
	l.captured = append(l.captured, msg)
	l.mu.Unlock()
}

// reset forgets the warm-up's messages.
func (l *messageLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sent.Store(0)
	l.captured = nil
}

// endpointShim wraps a transport.Endpoint in traced runs: Send is timed
// (a span when the endpoint is the manager's, whose sends are on the
// adaptation's goroutine) and every message is counted.
type endpointShim struct {
	transport.Endpoint
	t   *tracer // nil on agent endpoints
	log *messageLog
}

func (e *endpointShim) Send(msg protocol.Message) error {
	e.log.note(msg)
	h := e.t.begin("transport.send")
	defer e.t.end(h)
	return e.Endpoint.Send(msg)
}

// dwellSink receives, per adaptation step, how long a process sat blocked
// (Reset returned → Resume returned).
type dwellSink struct {
	mu    sync.Mutex
	steps [16]time.Duration // longest dwell among the step's processes
	all   []float64         // every (process, step) dwell, µs; traced runs only
	keep  bool
}

func (d *dwellSink) add(step int, dwell time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if step < len(d.steps) && dwell > d.steps[step] {
		d.steps[step] = dwell
	}
	if d.keep {
		d.all = append(d.all, micros(dwell))
	}
}

// take returns the time some process was held blocked during the
// adaptation just finished — the sum over its steps of the longest dwell —
// and clears the per-step state.
func (d *dwellSink) take() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	var sum time.Duration
	for i, v := range d.steps {
		sum += v
		d.steps[i] = 0
	}
	return sum
}

// procShim wraps an agent.LocalProcess. With a nil inner it is the no-op
// application the adapt_* workloads adapt. It reports the blocked dwell to
// its sink and, when traced, the three blocking hooks as async spans
// (hooks run on the agent's goroutine).
type procShim struct {
	inner agent.LocalProcess
	t     *tracer
	sink  *dwellSink
	// prefix names the spans: "agent" for the no-op application,
	// "adapters.sender"/"adapters.receiver" for MetaSocket adapters.
	prefix string

	resetAt time.Time // agent goroutine only

	// resets counts Reset calls, for adapters.server_steps_blocked.
	resets atomic.Int64
}

var _ agent.LocalProcess = (*procShim)(nil)

// started returns the hook's start time when it will become a span.
func (p *procShim) started() time.Time {
	if p.t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (p *procShim) span(name string, start time.Time) {
	if p.t != nil {
		p.t.async(p.prefix+"."+name, start, time.Now())
	}
}

func (p *procShim) PreAction(step protocol.Step, ops []action.Op) error {
	if p.inner == nil {
		return nil
	}
	return p.inner.PreAction(step, ops)
}

func (p *procShim) Reset(ctx context.Context, step protocol.Step) error {
	p.resets.Add(1)
	start := p.started()
	var err error
	if p.inner != nil {
		err = p.inner.Reset(ctx, step)
	}
	p.resetAt = time.Now()
	p.span("reset", start)
	return err
}

func (p *procShim) InAction(step protocol.Step, ops []action.Op) error {
	start := p.started()
	var err error
	if p.inner != nil {
		err = p.inner.InAction(step, ops)
	}
	p.span("inaction", start)
	return err
}

func (p *procShim) Resume(step protocol.Step) error {
	start := p.started()
	var err error
	if p.inner != nil {
		err = p.inner.Resume(step)
	}
	p.span("resume", start)
	p.sink.add(step.PathIndex, time.Since(p.resetAt))
	return err
}

func (p *procShim) PostAction(step protocol.Step, ops []action.Op) error {
	if p.inner == nil {
		return nil
	}
	return p.inner.PostAction(step, ops)
}

func (p *procShim) Rollback(step protocol.Step, ops []action.Op, applied bool) error {
	if p.inner == nil {
		return nil
	}
	return p.inner.Rollback(step, ops, applied)
}
