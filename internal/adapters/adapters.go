// Package adapters bridges MetaSockets to the adaptation agent's
// LocalProcess interface: it maps adaptive-action operations (insert,
// remove, replace of named components) onto filter-chain recompositions,
// implements the reset/block/resume handshake, and supports rollback by
// applying inverse operations.
package adapters

import (
	"context"
	"fmt"

	"repro/internal/action"
	"repro/internal/agent"
	"repro/internal/metasocket"
	"repro/internal/protocol"
)

// FilterHost is the subset of MetaSocket behavior the adapter needs; both
// *metasocket.SendSocket and *metasocket.RecvSocket satisfy it.
type FilterHost interface {
	RequestBlock(ctx context.Context) error
	Unblock()
	InsertFilter(f metasocket.Filter, at int) error
	RemoveFilter(name string) error
	ReplaceFilter(oldName string, f metasocket.Filter) error
	Filters() []string
}

var (
	_ FilterHost = (*metasocket.SendSocket)(nil)
	_ FilterHost = (*metasocket.RecvSocket)(nil)
)

// FilterFactory instantiates the filter implementing a named adaptive
// component (e.g. "E2" → a DES-128 encoder). The factory is consulted
// during the pre-action, so instantiation cost stays off the blocking
// window.
type FilterFactory func(component string) (metasocket.Filter, error)

// SocketProcess adapts one MetaSocket to agent.LocalProcess.
type SocketProcess struct {
	process string
	host    FilterHost
	factory FilterFactory
	// drain, when non-nil, runs before blocking during Reset — but only
	// on steps whose reset-phase ordering placed an upstream process in
	// an earlier phase (see Reset). Receiving sockets use it to realize
	// their share of the global safe condition.
	drain func(ctx context.Context) error
	// bystander is set by the pre-action of a step that has no operation
	// for this process (see Reset).
	bystander bool

	// staged holds filters instantiated by the pre-action, keyed by
	// component name.
	staged map[string]metasocket.Filter
}

// NewSendProcess adapts a sending MetaSocket for the named process. Its
// local safe state is a packet boundary; no drain is needed because the
// sender is upstream.
func NewSendProcess(process string, sock *metasocket.SendSocket, factory FilterFactory) *SocketProcess {
	return &SocketProcess{process: process, host: sock, factory: factory}
}

// NewRecvProcess adapts a receiving MetaSocket for the named process. On
// multi-phase steps where an upstream process took its turn first, Reset
// waits until what that process had sent by then has landed — the paper's
// global safe condition ("the receiver has received all the datagram
// packets that the sender has sent") — before blocking at a packet
// boundary. On single-phase steps (e.g. replacing a bypass-compatible
// decoder while the sender keeps streaming, like the case study's step A2)
// only the local packet boundary is required, as Sec. 5.2 argues.
func NewRecvProcess(process string, sock *metasocket.RecvSocket, factory FilterFactory) *SocketProcess {
	return &SocketProcess{
		process: process,
		host:    sock,
		factory: factory,
		drain:   sock.WaitDrained,
	}
}

var _ agent.LocalProcess = (*SocketProcess)(nil)

// needsDrain reports whether this process appears in a non-first reset
// phase of the step — i.e. some upstream process took its turn before us,
// blocked or left alone by the step, so waiting for everything it had sent
// by then terminates and establishes the global safe condition.
func (sp *SocketProcess) needsDrain(step protocol.Step) bool {
	if sp.drain == nil || len(step.ResetPhases) < 2 {
		return false
	}
	for _, p := range step.ResetPhases[0] {
		if p == sp.process {
			return false
		}
	}
	return true
}

// PreAction instantiates the filters for components this step inserts,
// without touching the running chain.
func (sp *SocketProcess) PreAction(_ protocol.Step, ops []action.Op) error {
	sp.bystander = len(ops) == 0
	sp.staged = make(map[string]metasocket.Filter)
	for _, op := range ops {
		if op.New == "" {
			continue
		}
		f, err := sp.factory(op.New)
		if err != nil {
			return fmt.Errorf("adapters: instantiate %q: %w", op.New, err)
		}
		sp.staged[op.New] = f
	}
	return nil
}

// Reset drives the socket to its safe state: drain when downstream in a
// multi-phase step, then block at a packet boundary. A bystander — the
// phase policy conscripted it into a step that changes nothing here —
// drains too (a relay must have passed on what was sent before the step
// when its successors take their turn) and is not blocked: what it goes on
// sending both sides of the step decode. Resume and Rollback release a
// socket whether or not it was blocked.
func (sp *SocketProcess) Reset(ctx context.Context, step protocol.Step) error {
	if sp.needsDrain(step) {
		if err := sp.drain(ctx); err != nil {
			return err
		}
	}
	if sp.bystander {
		return nil
	}
	return sp.host.RequestBlock(ctx)
}

// InAction applies the step's operations to the blocked filter chain.
func (sp *SocketProcess) InAction(_ protocol.Step, ops []action.Op) error {
	return sp.applyOps(ops)
}

func (sp *SocketProcess) applyOps(ops []action.Op) error {
	for _, op := range ops {
		switch op.Kind {
		case action.Insert:
			f, err := sp.takeStaged(op.New)
			if err != nil {
				return err
			}
			if err := sp.host.InsertFilter(f, insertPosition(f)); err != nil {
				return fmt.Errorf("adapters: insert %q: %w", op.New, err)
			}
		case action.Remove:
			if err := sp.host.RemoveFilter(op.Old); err != nil {
				return fmt.Errorf("adapters: remove %q: %w", op.Old, err)
			}
		case action.Replace:
			f, err := sp.takeStaged(op.New)
			if err != nil {
				return err
			}
			if err := sp.host.ReplaceFilter(op.Old, f); err != nil {
				return fmt.Errorf("adapters: replace %q with %q: %w", op.Old, op.New, err)
			}
		default:
			return fmt.Errorf("adapters: invalid op kind %d", int(op.Kind))
		}
	}
	return nil
}

// frontPreferrer is implemented by filters that belong at the head of a
// chain (e.g. metasocket.FECDecoderFilter, which must see wire-form
// packets before other decoders transform them).
type frontPreferrer interface {
	PreferFront() bool
}

// insertPosition returns the chain position for a filter: 0 when it
// prefers the front, append otherwise.
func insertPosition(f metasocket.Filter) int {
	if fp, ok := f.(frontPreferrer); ok && fp.PreferFront() {
		return 0
	}
	return -1
}

func (sp *SocketProcess) takeStaged(name string) (metasocket.Filter, error) {
	if f, ok := sp.staged[name]; ok {
		return f, nil
	}
	// Rollback and late paths may need a fresh instance.
	f, err := sp.factory(name)
	if err != nil {
		return nil, fmt.Errorf("adapters: instantiate %q: %w", name, err)
	}
	return f, nil
}

// Resume unblocks the socket.
func (sp *SocketProcess) Resume(protocol.Step) error {
	sp.host.Unblock()
	return nil
}

// PostAction discards staged state; old filter instances are garbage
// collected (the paper's "destruction of old components").
func (sp *SocketProcess) PostAction(protocol.Step, []action.Op) error {
	sp.staged = nil
	return nil
}

// Rollback undoes the step: when the in-action had been applied, the
// inverse operations are applied to the still-blocked chain; either way
// the socket resumes in its pre-step structure.
func (sp *SocketProcess) Rollback(_ protocol.Step, ops []action.Op, inActionApplied bool) error {
	defer func() {
		sp.staged = nil
		sp.host.Unblock()
	}()
	if !inActionApplied {
		return nil
	}
	inv := action.Action{ID: "rollback", Ops: ops}.Inverse()
	if err := sp.applyOps(inv.Ops); err != nil {
		return fmt.Errorf("adapters: rollback: %w", err)
	}
	return nil
}
