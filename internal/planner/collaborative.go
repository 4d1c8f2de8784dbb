package planner

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/action"
	"repro/internal/model"
	"repro/internal/sag"
)

// SetPlan is the plan for one collaborative set: the components involved,
// and the path restricted to that set's sub-system.
type SetPlan struct {
	// Components is the sorted member list of the collaborative set.
	Components []string
	// Path is the minimum adaptation path within the set. Empty when the
	// set needs no change.
	Path sag.Path
}

// DecomposedPlan is an adaptation plan computed per collaborative set
// (paper Sec. 7): the sets are independent — no invariant spans two sets —
// so their paths may be executed in any order, or interleaved.
type DecomposedPlan struct {
	Sets []SetPlan
}

// Cost returns the total cost across all set plans.
func (d DecomposedPlan) Cost() time.Duration {
	var total time.Duration
	for _, s := range d.Sets {
		total += s.Path.Cost()
	}
	return total
}

// Steps flattens the per-set paths into one sequential path (set order).
// Because sets share no invariants, the concatenation is itself a safe
// adaptation path of the whole system.
func (d DecomposedPlan) Steps() []sag.Edge {
	var out []sag.Edge
	for _, s := range d.Sets {
		out = append(out, s.Path.Steps...)
	}
	return out
}

// PlanDecomposed partitions the components into collaborative sets
// (connected components of the invariant co-occurrence graph), and plans
// each set independently with A* search over the sub-registry. An
// action belongs to the set that contains its components; actions
// spanning two sets make decomposition unsound and cause an error.
//
// For systems whose invariants decompose, this reduces the exponential
// safe-set enumeration from 2^n to a sum of 2^|set_i| terms.
func (p *Planner) PlanDecomposed(source, target model.Config) (DecomposedPlan, error) {
	if err := p.checkSafe("source", source); err != nil {
		return DecomposedPlan{}, err
	}
	if err := p.checkSafe("target", target); err != nil {
		return DecomposedPlan{}, err
	}

	sets := p.invs.CollaborativeSets()
	memberOf := make(map[string]int, p.reg.Len())
	for i, set := range sets {
		for _, name := range set {
			memberOf[name] = i
		}
	}

	// Assign each action to a set and reject cross-set actions.
	actionsBySet := make([][]action.Action, len(sets))
	for _, a := range p.actions {
		comps := a.Components()
		if len(comps) == 0 {
			continue
		}
		si, ok := memberOf[comps[0]]
		if !ok {
			return DecomposedPlan{}, fmt.Errorf("planner: action %s touches unknown component %q", a.ID, comps[0])
		}
		for _, c := range comps[1:] {
			sj, ok := memberOf[c]
			if !ok {
				return DecomposedPlan{}, fmt.Errorf("planner: action %s touches unknown component %q", a.ID, c)
			}
			if sj != si {
				return DecomposedPlan{}, fmt.Errorf(
					"planner: action %s spans collaborative sets (%q vs %q); decomposition is unsound",
					a.ID, comps[0], c)
			}
		}
		actionsBySet[si] = append(actionsBySet[si], a)
	}

	plan := DecomposedPlan{Sets: make([]SetPlan, 0, len(sets))}
	for i, set := range sets {
		mask, err := p.invs.MaskOf(set)
		if err != nil {
			return DecomposedPlan{}, err
		}
		subSource := source & mask
		subTarget := target & mask
		sp := SetPlan{Components: append([]string(nil), set...)}
		if subSource != subTarget {
			// Plan within the sub-space: freeze bits outside the mask at
			// the source value so invariants over other sets stay
			// satisfied (they are unaffected by construction, since no
			// invariant spans sets).
			path, err := p.planMasked(source, subTarget|(source&^mask), actionsBySet[i])
			if err != nil {
				return DecomposedPlan{}, fmt.Errorf("planner: set %v: %w", set, err)
			}
			sp.Path = path
		}
		plan.Sets = append(plan.Sets, sp)
	}

	sort.Slice(plan.Sets, func(i, j int) bool {
		return fmt.Sprint(plan.Sets[i].Components) < fmt.Sprint(plan.Sets[j].Components)
	})
	return plan, nil
}

// planMasked is PlanAStar restricted to a subset of actions.
func (p *Planner) planMasked(source, target model.Config, acts []action.Action) (sag.Path, error) {
	sub := &Planner{reg: p.reg, invs: p.invs, actions: acts, now: p.now}
	return sub.PlanAStar(source, target)
}
