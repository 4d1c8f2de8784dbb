// Package action defines adaptive actions: insert, remove, and replace
// operations on components, possibly compounded, each with a fixed cost
// (paper Secs. 3.1 and 4.1, Table 2).
//
// An adaptive action is a partial function from configurations to
// configurations: adapt(config1) = config2. An action applies to a
// configuration only when its preconditions hold (components to remove or
// replace are present, components to insert are absent).
package action

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/model"
)

// OpKind is the kind of a primitive operation within an adaptive action.
type OpKind int

const (
	// Insert adds a component that is currently absent.
	Insert OpKind = iota + 1
	// Remove deletes a component that is currently present.
	Remove
	// Replace swaps a present component for an absent one atomically.
	Replace
)

// String returns the operation-kind name.
func (k OpKind) String() string {
	switch k {
	case Insert:
		return "insert"
	case Remove:
		return "remove"
	case Replace:
		return "replace"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one primitive operation. Ops travel inside protocol messages, so
// their fields carry JSON tags.
type Op struct {
	Kind OpKind `json:"kind"`
	// Old is the component being removed or replaced (empty for Insert).
	Old string `json:"old,omitempty"`
	// New is the component being inserted or substituted in (empty for
	// Remove).
	New string `json:"new,omitempty"`
}

// String renders the operation in the paper's notation: "Old -> New" for
// replace, "+New" for insert, "-Old" for remove.
func (op Op) String() string {
	switch op.Kind {
	case Insert:
		return "+" + op.New
	case Remove:
		return "-" + op.Old
	case Replace:
		return op.Old + " -> " + op.New
	default:
		return "?"
	}
}

// Action is an adaptive action: one or more primitive operations applied
// atomically, with an identifier and a fixed cost.
type Action struct {
	// ID is the action identifier, e.g. "A2".
	ID string
	// Ops are the primitive operations performed atomically.
	Ops []Op
	// Cost is the fixed action cost. The paper uses packet-delay
	// milliseconds; any consistent non-negative unit works.
	Cost time.Duration
	// Description is free-form documentation.
	Description string
}

// String renders the action as "A2: D1 -> D2 (cost 10ms)".
func (a Action) String() string {
	parts := make([]string, len(a.Ops))
	for i, op := range a.Ops {
		parts[i] = op.String()
	}
	return fmt.Sprintf("%s: %s (cost %v)", a.ID, strings.Join(parts, ", "), a.Cost)
}

// Operation renders just the operation list, e.g. "(D1, E1) -> (D2, E2)"
// for a compound replace, matching Table 2's Operation column.
func (a Action) Operation() string {
	// Special-case: all ops are replaces -> render as tuple replace.
	allReplace := len(a.Ops) > 1
	for _, op := range a.Ops {
		if op.Kind != Replace {
			allReplace = false
			break
		}
	}
	if allReplace {
		olds := make([]string, len(a.Ops))
		news := make([]string, len(a.Ops))
		for i, op := range a.Ops {
			olds[i] = op.Old
			news[i] = op.New
		}
		return "(" + strings.Join(olds, ", ") + ") -> (" + strings.Join(news, ", ") + ")"
	}
	parts := make([]string, len(a.Ops))
	for i, op := range a.Ops {
		parts[i] = op.String()
	}
	return strings.Join(parts, ", ")
}

// Components returns the de-duplicated set of component names the action
// touches (both old and new), in first-mention order.
func (a Action) Components() []string {
	seen := make(map[string]bool, 2*len(a.Ops))
	var out []string
	add := func(n string) {
		if n != "" && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, op := range a.Ops {
		add(op.Old)
		add(op.New)
	}
	return out
}

// Validate checks that every referenced component exists in the registry
// and that the operation list is well formed.
func (a Action) Validate(reg *model.Registry) error {
	if a.ID == "" {
		return fmt.Errorf("action: empty ID")
	}
	if len(a.Ops) == 0 {
		return fmt.Errorf("action %s: no operations", a.ID)
	}
	if a.Cost < 0 {
		return fmt.Errorf("action %s: negative cost %v", a.ID, a.Cost)
	}
	for i, op := range a.Ops {
		switch op.Kind {
		case Insert:
			if op.New == "" || op.Old != "" {
				return fmt.Errorf("action %s op %d: insert requires New only", a.ID, i)
			}
		case Remove:
			if op.Old == "" || op.New != "" {
				return fmt.Errorf("action %s op %d: remove requires Old only", a.ID, i)
			}
		case Replace:
			if op.Old == "" || op.New == "" {
				return fmt.Errorf("action %s op %d: replace requires Old and New", a.ID, i)
			}
		default:
			return fmt.Errorf("action %s op %d: invalid kind %d", a.ID, i, int(op.Kind))
		}
		for _, name := range []string{op.Old, op.New} {
			if name != "" && !reg.Has(name) {
				return fmt.Errorf("action %s op %d: unknown component %q", a.ID, i, name)
			}
		}
	}
	return nil
}

// Apply applies the action to c. ok is false when a precondition fails:
// inserting a present component, or removing/replacing an absent one.
func (a Action) Apply(reg *model.Registry, c model.Config) (next model.Config, ok bool) {
	next = c
	for _, op := range a.Ops {
		switch op.Kind {
		case Insert:
			if reg.Contains(next, op.New) {
				return c, false
			}
			next, _ = reg.With(next, op.New)
		case Remove:
			if !reg.Contains(next, op.Old) {
				return c, false
			}
			next, _ = reg.Without(next, op.Old)
		case Replace:
			if !reg.Contains(next, op.Old) || reg.Contains(next, op.New) {
				return c, false
			}
			next, _ = reg.Without(next, op.Old)
			next, _ = reg.With(next, op.New)
		default:
			return c, false
		}
	}
	return next, true
}

// Inverse returns the action that undoes a, used by the rollback
// machinery. The inverse keeps the same cost (undoing blocks the system
// just as long) and carries the ID suffixed with "⁻¹".
func (a Action) Inverse() Action {
	inv := Action{
		ID:          a.ID + "-inv",
		Cost:        a.Cost,
		Description: "inverse of " + a.ID,
		Ops:         make([]Op, len(a.Ops)),
	}
	// Reverse the op order as well as each op, so compound inverses
	// compose correctly.
	for i, op := range a.Ops {
		j := len(a.Ops) - 1 - i
		switch op.Kind {
		case Insert:
			inv.Ops[j] = Op{Kind: Remove, Old: op.New}
		case Remove:
			inv.Ops[j] = Op{Kind: Insert, New: op.Old}
		case Replace:
			inv.Ops[j] = Op{Kind: Replace, Old: op.New, New: op.Old}
		}
	}
	return inv
}

// Processes returns the sorted set of process names hosting components the
// action touches; these are the processes whose agents participate in the
// distributed adaptive action.
func (a Action) Processes(reg *model.Registry) ([]string, error) {
	out := make([]string, 0, 2*len(a.Ops))
	for _, op := range a.Ops {
		for _, name := range [2]string{op.Old, op.New} {
			if name == "" {
				continue
			}
			p, err := reg.ProcessOf(name)
			if err != nil {
				return nil, fmt.Errorf("action %s: %w", a.ID, err)
			}
			if !slices.Contains(out, p) {
				out = append(out, p)
			}
		}
	}
	slices.Sort(out)
	return out, nil
}
