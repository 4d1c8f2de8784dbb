package adapters

import (
	"context"
	"fmt"

	"repro/internal/action"
	"repro/internal/agent"
	"repro/internal/protocol"
)

// CompositeProcess adapts a process that hosts adaptive components on
// several MetaSockets — e.g. a relay with a receiving socket on its
// upstream side and a sending socket on its downstream side. One agent
// drives the whole process: Reset quiesces every socket (in the declared
// order, upstream side first), the in-action routes each operation to the
// socket owning its component, and Resume releases the sockets in reverse
// order (downstream first), so the process never emits while its
// downstream side is still blocked.
type CompositeProcess struct {
	parts []*SocketProcess
	// owner maps a component name to the index of the part hosting it.
	owner map[string]int
}

var _ agent.LocalProcess = (*CompositeProcess)(nil)

// Part declares one socket of a composite process and the components it
// hosts.
type Part struct {
	// Proc is the socket's adapter (NewSendProcess / NewRecvProcess).
	Proc *SocketProcess
	// Components are the adaptive component names living on this socket.
	Components []string
}

// NewCompositeProcess builds a composite from its parts, declared in
// quiesce order (upstream first).
func NewCompositeProcess(parts ...Part) (*CompositeProcess, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("adapters: composite process needs at least one part")
	}
	cp := &CompositeProcess{owner: make(map[string]int)}
	for i, p := range parts {
		if p.Proc == nil {
			return nil, fmt.Errorf("adapters: composite part %d has nil proc", i)
		}
		cp.parts = append(cp.parts, p.Proc)
		for _, c := range p.Components {
			if _, dup := cp.owner[c]; dup {
				return nil, fmt.Errorf("adapters: component %q declared on two parts", c)
			}
			cp.owner[c] = i
		}
	}
	return cp, nil
}

// route splits the ops by owning part. Operations whose components are
// unknown to every part are an error — the step was misaddressed.
func (cp *CompositeProcess) route(ops []action.Op) ([][]action.Op, error) {
	routed := make([][]action.Op, len(cp.parts))
	for _, op := range ops {
		name := op.Old
		if name == "" {
			name = op.New
		}
		idx, ok := cp.owner[name]
		if !ok {
			// A replace may introduce a brand-new component; place it
			// with its partner (Old) when possible.
			if op.Old != "" {
				if i, okOld := cp.owner[op.Old]; okOld {
					idx, ok = i, true
				}
			}
			if !ok {
				return nil, fmt.Errorf("adapters: no part hosts component %q", name)
			}
		}
		routed[idx] = append(routed[idx], op)
		// Remember new components for later steps (insert/replace).
		if op.New != "" {
			cp.owner[op.New] = idx
		}
	}
	return routed, nil
}

// PreAction stages new filters on the owning parts.
func (cp *CompositeProcess) PreAction(step protocol.Step, ops []action.Op) error {
	routed, err := cp.route(ops)
	if err != nil {
		return err
	}
	for i, part := range cp.parts {
		if err := part.PreAction(step, routed[i]); err != nil {
			return err
		}
		// The process is the bystander: changing one socket blocks them all.
		part.bystander = len(ops) == 0
	}
	return nil
}

// Reset quiesces every socket in declared (upstream-first) order. On
// failure the already-blocked sockets are released.
func (cp *CompositeProcess) Reset(ctx context.Context, step protocol.Step) error {
	for i, part := range cp.parts {
		if err := part.Reset(ctx, step); err != nil {
			for j := i - 1; j >= 0; j-- {
				cp.parts[j].host.Unblock()
			}
			return err
		}
	}
	return nil
}

// InAction applies each operation on the socket owning its component.
func (cp *CompositeProcess) InAction(step protocol.Step, ops []action.Op) error {
	routed, err := cp.route(ops)
	if err != nil {
		return err
	}
	for i, part := range cp.parts {
		if len(routed[i]) == 0 {
			continue
		}
		if err := part.InAction(step, routed[i]); err != nil {
			return err
		}
	}
	return nil
}

// Resume releases the sockets downstream-first.
func (cp *CompositeProcess) Resume(step protocol.Step) error {
	for i := len(cp.parts) - 1; i >= 0; i-- {
		if err := cp.parts[i].Resume(step); err != nil {
			return err
		}
	}
	return nil
}

// PostAction cleans up every part.
func (cp *CompositeProcess) PostAction(step protocol.Step, ops []action.Op) error {
	routed, err := cp.route(ops)
	if err != nil {
		return err
	}
	for i, part := range cp.parts {
		if err := part.PostAction(step, routed[i]); err != nil {
			return err
		}
	}
	return nil
}

// Rollback undoes each part's share and releases all sockets.
func (cp *CompositeProcess) Rollback(step protocol.Step, ops []action.Op, inActionApplied bool) error {
	routed, rerr := cp.route(ops)
	var firstErr error
	for i := len(cp.parts) - 1; i >= 0; i-- {
		var partOps []action.Op
		if rerr == nil {
			partOps = routed[i]
		}
		if err := cp.parts[i].Rollback(step, partOps, inActionApplied && len(partOps) > 0); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if rerr != nil && firstErr == nil {
		firstErr = rerr
	}
	return firstErr
}
