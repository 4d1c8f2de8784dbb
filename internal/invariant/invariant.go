// Package invariant defines dependency relationships (the paper's system
// and dependency invariants) and enumerates the set of safe
// configurations.
//
// A configuration is *safe* iff it satisfies every invariant when each
// component present in the configuration is assigned true and every other
// component false (paper Sec. 3.1).
package invariant

import (
	"fmt"
	"sort"

	"repro/internal/expr"
	"repro/internal/model"
)

// Kind distinguishes the two invariant categories of the paper.
type Kind int

const (
	// Structural invariants constrain the overall system structure, e.g.
	// the resource constraint oneof(D1,D2,D3).
	Structural Kind = iota + 1
	// Dependency invariants relate a component to the condition it needs,
	// e.g. E1 -> (D1 | D2) & D4.
	Dependency
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Structural:
		return "structural"
	case Dependency:
		return "dependency"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Invariant is one dependency relationship predicate.
type Invariant struct {
	// Name is a short label used in diagnostics, e.g. "resource" or
	// "E1-deps".
	Name string
	// Kind classifies the invariant.
	Kind Kind
	// Pred is the predicate that must hold in every safe configuration.
	Pred expr.Expr
}

// NewStructural builds a structural invariant from source text.
func NewStructural(name, source string) (Invariant, error) {
	p, err := expr.Parse(source)
	if err != nil {
		return Invariant{}, fmt.Errorf("invariant %q: %w", name, err)
	}
	return Invariant{Name: name, Kind: Structural, Pred: p}, nil
}

// NewDependency builds a dependency invariant from source text.
func NewDependency(name, source string) (Invariant, error) {
	p, err := expr.Parse(source)
	if err != nil {
		return Invariant{}, fmt.Errorf("invariant %q: %w", name, err)
	}
	return Invariant{Name: name, Kind: Dependency, Pred: p}, nil
}

// String renders the invariant as "name: predicate".
func (inv Invariant) String() string {
	return inv.Name + ": " + inv.Pred.String()
}

// Set is an ordered collection of invariants over one registry. The
// conjunction of all predicates is the paper's I: S -> BOOL.
type Set struct {
	reg  *model.Registry
	invs []Invariant
}

// NewSet validates that every variable referenced by the invariants is a
// registered component and returns the set.
func NewSet(reg *model.Registry, invs ...Invariant) (*Set, error) {
	if reg == nil {
		return nil, fmt.Errorf("invariant: nil registry")
	}
	for _, inv := range invs {
		for _, v := range expr.Vars(inv.Pred) {
			if !reg.Has(v) {
				return nil, fmt.Errorf("invariant %q references unknown component %q", inv.Name, v)
			}
		}
	}
	s := &Set{reg: reg, invs: make([]Invariant, len(invs))}
	copy(s.invs, invs)
	return s, nil
}

// Registry returns the registry the set is defined over.
func (s *Set) Registry() *model.Registry { return s.reg }

// Invariants returns a copy of the invariants.
func (s *Set) Invariants() []Invariant {
	out := make([]Invariant, len(s.invs))
	copy(out, s.invs)
	return out
}

// Satisfied reports whether c satisfies every invariant.
func (s *Set) Satisfied(c model.Config) bool {
	assign := s.reg.AssignFunc(c)
	for _, inv := range s.invs {
		if !inv.Pred.Eval(assign) {
			return false
		}
	}
	return true
}

// Violations returns the invariants that c violates, in declaration order.
// A safe configuration returns nil.
func (s *Set) Violations(c model.Config) []Invariant {
	assign := s.reg.AssignFunc(c)
	var out []Invariant
	for _, inv := range s.invs {
		if !inv.Pred.Eval(assign) {
			out = append(out, inv)
		}
	}
	return out
}

// SafeConfigs enumerates every safe configuration, in ascending bit-vector
// order. This is the "Construct Safe Configuration Set" step of the
// detection-and-setup phase (paper Sec. 4.2, Table 1).
//
// Enumeration is exhaustive over the 2^n configuration space but prunes
// using oneof structural invariants: a oneof group contributes a factor of
// |group| rather than 2^|group| to the explored space.
func (s *Set) SafeConfigs() []model.Config {
	n := s.reg.Len()

	// Collect top-level oneof invariants for pruning. Each gives the set
	// of bits of which exactly one must be set.
	var groups []uint64
	var groupUnion uint64
	for _, inv := range s.invs {
		oo, ok := inv.Pred.(expr.OneOf)
		if !ok {
			continue
		}
		var mask uint64
		pure := true
		for _, x := range oo.Xs {
			v, isVar := x.(expr.Var)
			if !isVar {
				pure = false
				break
			}
			i, err := s.reg.Index(v.Name)
			if err != nil {
				pure = false
				break
			}
			mask |= 1 << uint(i)
		}
		// Only use disjoint pure-variable groups for pruning; anything
		// else is still checked by the full Satisfied pass.
		if pure && mask&groupUnion == 0 {
			groups = append(groups, mask)
			groupUnion |= mask
		}
	}

	freeMask := (uint64(1)<<uint(n) - 1) &^ groupUnion
	var out []model.Config

	// Enumerate choices for each oneof group (one bit per group), then all
	// subsets of the remaining free bits.
	var walk func(gi int, acc uint64)
	walk = func(gi int, acc uint64) {
		if gi == len(groups) {
			// Iterate subsets of freeMask including the empty set.
			sub := freeMask
			for {
				c := model.Config(acc | (freeMask &^ sub))
				if s.Satisfied(c) {
					out = append(out, c)
				}
				if sub == 0 {
					break
				}
				sub = (sub - 1) & freeMask
			}
			return
		}
		g := groups[gi]
		for g != 0 {
			bit := g & -g
			walk(gi+1, acc|bit)
			g &^= bit
		}
	}
	walk(0, 0)

	sortConfigs(out)
	return out
}

// sortConfigs sorts configurations ascending by numeric value, which
// corresponds to ascending bit-vector order.
func sortConfigs(cs []model.Config) {
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
}

// ComponentClosure returns, for each component, the set of components that
// co-occur with it in some invariant. This is the connectivity relation
// used for collaborative-set decomposition (paper Sec. 7): components that
// never appear together in an invariant can be adapted independently.
func (s *Set) ComponentClosure() map[string][]string {
	adj := make(map[string]map[string]bool, s.reg.Len())
	for _, inv := range s.invs {
		vars := expr.Vars(inv.Pred)
		for _, a := range vars {
			if adj[a] == nil {
				adj[a] = make(map[string]bool)
			}
			for _, b := range vars {
				if a != b {
					adj[a][b] = true
				}
			}
		}
	}
	out := make(map[string][]string, len(adj))
	for a, set := range adj {
		names := make([]string, 0, len(set))
		for b := range set {
			names = append(names, b)
		}
		sort.Strings(names)
		out[a] = names
	}
	return out
}

// CollaborativeSets partitions the registered components into connected
// components of the invariant co-occurrence graph. Components that share
// no invariant (directly or transitively) land in different sets and can
// be planned independently, reducing the exponential SAG cost (Sec. 7).
// Components mentioned by no invariant each form a singleton set.
func (s *Set) CollaborativeSets() [][]string {
	adj := s.ComponentClosure()
	names := s.reg.Names()
	visited := make(map[string]bool, len(names))
	var sets [][]string
	for _, start := range names {
		if visited[start] {
			continue
		}
		// BFS over the co-occurrence graph.
		queue := []string{start}
		visited[start] = true
		var comp []string
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			comp = append(comp, cur)
			for _, nb := range adj[cur] {
				if !visited[nb] {
					visited[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		sort.Strings(comp)
		sets = append(sets, comp)
	}
	return sets
}

// MaskOf returns the bitmask over the registry covering the given
// component names; it is a convenience for planners that restrict
// attention to one collaborative set.
func (s *Set) MaskOf(names []string) (model.Config, error) {
	return s.reg.ConfigOf(names...)
}

// Degrees returns summary statistics of the co-occurrence graph: the
// number of edges and the maximum degree, used in scalability reporting.
func (s *Set) Degrees() (edges, maxDegree int) {
	adj := s.ComponentClosure()
	for _, nbs := range adj {
		edges += len(nbs)
		if len(nbs) > maxDegree {
			maxDegree = len(nbs)
		}
	}
	return edges / 2, maxDegree
}
