// Package spec defines a declarative JSON description of an adaptive
// system — components with their codec tags, dependency invariants,
// adaptive actions, the adaptation request and the dataflow — and
// compiles it into the analysis objects (registry, invariant set,
// actions, codec tables, phase policy). This is the file format consumed
// by the safeadaptctl CLI and the programmatic entry point for downstream
// users who prefer configuration over code. PaperSystem is the one
// declaration of the paper's case study.
package spec

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/action"
	"repro/internal/invariant"
	"repro/internal/model"
)

// ComponentSpec declares one adaptive component. A codec component
// declares the encoding tags its packets carry: an encoder the one tag it
// emits, a decoder the tags it accepts. The case study's tags are the
// cipher names ("des64", "des128").
type ComponentSpec struct {
	Name        string   `json:"name"`
	Process     string   `json:"process"`
	Description string   `json:"description,omitempty"`
	Emits       string   `json:"emits,omitempty"`
	Accepts     []string `json:"accepts,omitempty"`
}

// InvariantSpec declares one dependency relationship.
type InvariantSpec struct {
	Name string `json:"name"`
	// Kind is "structural" or "dependency" (default "dependency").
	Kind string `json:"kind,omitempty"`
	// Predicate is an expression in the internal/expr language, e.g.
	// "E1 -> (D1 | D2) & D4" or "oneof(D1, D2, D3)".
	Predicate string `json:"predicate"`
}

// ActionSpec declares one adaptive action.
type ActionSpec struct {
	ID string `json:"id"`
	// Operation uses Table 2 notation: "E1 -> E2", "+D5", "-D4",
	// "(D1, E1) -> (D2, E2)".
	Operation string `json:"operation"`
	// CostMillis is the fixed action cost in milliseconds.
	CostMillis  int    `json:"costMillis"`
	Description string `json:"description,omitempty"`
}

// System is the complete declarative description.
type System struct {
	Name       string          `json:"name"`
	Components []ComponentSpec `json:"components"`
	Invariants []InvariantSpec `json:"invariants"`
	Actions    []ActionSpec    `json:"actions"`
	// Source and Target are configurations given either as bit vectors
	// ("0100101") or component lists (["D4","D1","E1"]).
	Source ConfigSpec `json:"source"`
	Target ConfigSpec `json:"target"`
	// Dataflow optionally orders the processes upstream → downstream
	// (e.g. ["server", "handheld", "laptop"], with equal-rank processes
	// simply listed in any order after their upstream). When set, upstream
	// processes take their turn first on every adaptation step —
	// conscripted if needed: blocked where the step changes them, left
	// running where it does not — so downstream processes swap components
	// once everything sent before the step has landed (the paper's global
	// safe condition). Each process may appear once.
	Dataflow []string `json:"dataflow,omitempty"`
}

// ConfigSpec is a configuration written either as a bit-vector string or
// a component-name list.
type ConfigSpec struct {
	Vector     string   `json:"vector,omitempty"`
	Components []string `json:"components,omitempty"`
}

// UnmarshalJSON accepts a bare string (bit vector), a bare array
// (component list), or the object form.
func (c *ConfigSpec) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		c.Vector = s
		return nil
	}
	var list []string
	if err := json.Unmarshal(data, &list); err == nil {
		c.Components = list
		return nil
	}
	type raw ConfigSpec
	var r raw
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("spec: configuration must be a bit-vector string, a component list, or an object: %w", err)
	}
	*c = ConfigSpec(r)
	return nil
}

// MarshalJSON renders the most compact form.
func (c ConfigSpec) MarshalJSON() ([]byte, error) {
	if c.Vector != "" {
		return json.Marshal(c.Vector)
	}
	return json.Marshal(c.Components)
}

// Resolve compiles the configuration against a registry.
func (c ConfigSpec) Resolve(reg *model.Registry) (model.Config, error) {
	switch {
	case c.Vector != "" && len(c.Components) > 0:
		return 0, fmt.Errorf("spec: configuration has both vector and component list")
	case c.Vector != "":
		return reg.ParseBitVector(c.Vector)
	case len(c.Components) > 0:
		return reg.ConfigOf(c.Components...)
	default:
		return 0, fmt.Errorf("spec: empty configuration")
	}
}

// Compiled is the analysis-ready form of a System.
type Compiled struct {
	Name       string
	Registry   *model.Registry
	Invariants *invariant.Set
	Actions    []action.Action
	Source     model.Config
	Target     model.Config
	Dataflow   []string
	// Encodes maps each encoder component to the tag it emits, and
	// Decodes each decoder component to the tags it accepts. Both are
	// empty when the spec declares no codec tags.
	Encodes map[string]string
	Decodes map[string][]string

	// upstream holds one read-only phase per dataflow process, so that
	// ResetPhases builds no per-call rank table.
	upstream [][]string
}

// ResetPhases derives the step reset-phase policy from the declared
// dataflow. The dataflow names the upstream processes in order;
// processes not named are downstream leaves. For a step touching a
// downstream process, every named upstream process is conscripted to take
// part, in order, before the downstream participants: one the step changes
// is blocked, one it does not is a bystander that passes on what it has
// received and keeps running (adapters.SocketProcess.Reset) — so
// downstream swaps always happen after everything sent before the step
// has landed (the paper's global safe condition). For a
// step touching only the upstream-most process, no ordering is needed
// and nil is returned (single simultaneous phase).
func (c *Compiled) ResetPhases(participants []string) [][]string {
	if len(c.Dataflow) == 0 {
		return nil
	}
	maxRank, downstream := -1, 0
	for _, p := range participants {
		if r := slices.Index(c.Dataflow, p); r < 0 {
			downstream++
		} else if r > maxRank {
			maxRank = r
		}
	}
	if downstream > 0 {
		// Downstream leaves involved: quiesce the full upstream chain.
		maxRank = len(c.Dataflow) - 1
	} else if maxRank <= 0 {
		return nil
	}
	phases := c.upstream[: maxRank+1 : maxRank+1]
	if downstream == 0 {
		return phases
	}
	leaves := make([]string, 0, downstream)
	for _, p := range participants {
		if !slices.Contains(c.Dataflow, p) {
			leaves = append(leaves, p)
		}
	}
	return append(phases, leaves)
}

// Compile validates the description and builds the analysis objects.
func (s *System) Compile() (*Compiled, error) {
	if len(s.Components) == 0 {
		return nil, fmt.Errorf("spec: no components")
	}
	comps := make([]model.Component, len(s.Components))
	encodes := make(map[string]string)
	decodes := make(map[string][]string)
	for i, cs := range s.Components {
		comps[i] = model.Component{Name: cs.Name, Process: cs.Process, Description: cs.Description}
		switch {
		case cs.Emits != "" && len(cs.Accepts) > 0:
			return nil, fmt.Errorf("spec: component %q both emits and accepts; a codec is an encoder or a decoder", cs.Name)
		case slices.Contains(cs.Accepts, ""):
			return nil, fmt.Errorf("spec: component %q accepts an empty tag", cs.Name)
		case cs.Emits != "":
			encodes[cs.Name] = cs.Emits
		case len(cs.Accepts) > 0:
			decodes[cs.Name] = slices.Clone(cs.Accepts)
		}
	}
	reg, err := model.NewRegistry(comps...)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}

	invs := make([]invariant.Invariant, 0, len(s.Invariants))
	for _, is := range s.Invariants {
		var inv invariant.Invariant
		var ierr error
		switch is.Kind {
		case "structural":
			inv, ierr = invariant.NewStructural(is.Name, is.Predicate)
		case "", "dependency":
			inv, ierr = invariant.NewDependency(is.Name, is.Predicate)
		default:
			return nil, fmt.Errorf("spec: invariant %q has unknown kind %q", is.Name, is.Kind)
		}
		if ierr != nil {
			return nil, fmt.Errorf("spec: %w", ierr)
		}
		invs = append(invs, inv)
	}
	set, err := invariant.NewSet(reg, invs...)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}

	actions := make([]action.Action, 0, len(s.Actions))
	for _, as := range s.Actions {
		if as.CostMillis < 0 {
			return nil, fmt.Errorf("spec: action %q has negative cost", as.ID)
		}
		a, aerr := action.New(as.ID, as.Operation, time.Duration(as.CostMillis)*time.Millisecond, as.Description)
		if aerr != nil {
			return nil, fmt.Errorf("spec: %w", aerr)
		}
		if aerr := a.Validate(reg); aerr != nil {
			return nil, fmt.Errorf("spec: %w", aerr)
		}
		actions = append(actions, a)
	}

	src, err := s.Source.Resolve(reg)
	if err != nil {
		return nil, fmt.Errorf("spec: source: %w", err)
	}
	tgt, err := s.Target.Resolve(reg)
	if err != nil {
		return nil, fmt.Errorf("spec: target: %w", err)
	}
	processes := make(map[string]bool, len(comps))
	for _, c := range comps {
		processes[c.Process] = true
	}
	upstream := make([][]string, len(s.Dataflow))
	for i, p := range s.Dataflow {
		if !processes[p] {
			return nil, fmt.Errorf("spec: dataflow names unknown process %q", p)
		}
		if slices.Index(s.Dataflow, p) < i {
			return nil, fmt.Errorf("spec: dataflow names process %q twice", p)
		}
		upstream[i] = []string{p}
	}

	return &Compiled{
		Name:       s.Name,
		Registry:   reg,
		Invariants: set,
		Actions:    actions,
		Source:     src,
		Target:     tgt,
		Dataflow:   slices.Clone(s.Dataflow),
		Encodes:    encodes,
		Decodes:    decodes,
		upstream:   upstream,
	}, nil
}

// Parse decodes a System from JSON.
func Parse(data []byte) (*System, error) {
	var s System
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("spec: parse: %w", err)
	}
	return &s, nil
}

// Load reads and decodes a System from a file.
func Load(path string) (*System, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return Parse(data)
}

// PaperSystem returns the case study (Sec. 5) as a declarative System:
// Fig. 3's components with their codec tags, the Sec. 5.1 invariants,
// Table 2 and the source → target request. It is the one declaration of
// the case study; internal/paper, the explorer's model, the video
// filters and their phase policy are all compiled from it. Useful as a
// template.
func PaperSystem() *System {
	ms := func(id, op string, cost int, desc string) ActionSpec {
		return ActionSpec{ID: id, Operation: op, CostMillis: cost, Description: desc}
	}
	return &System{
		Name: "dsn04-video-multicast",
		Components: []ComponentSpec{
			{Name: "E1", Process: "server", Description: "DES 64-bit encoder", Emits: "des64"},
			{Name: "E2", Process: "server", Description: "DES 128-bit encoder", Emits: "des128"},
			{Name: "D1", Process: "handheld", Description: "DES 64-bit decoder", Accepts: []string{"des64"}},
			{Name: "D2", Process: "handheld", Description: "DES 128/64-bit compatible decoder", Accepts: []string{"des64", "des128"}},
			{Name: "D3", Process: "handheld", Description: "DES 128-bit decoder", Accepts: []string{"des128"}},
			{Name: "D4", Process: "laptop", Description: "DES 64-bit decoder", Accepts: []string{"des64"}},
			{Name: "D5", Process: "laptop", Description: "DES 128-bit decoder", Accepts: []string{"des128"}},
		},
		Invariants: []InvariantSpec{
			{Name: "resource", Kind: "structural", Predicate: "oneof(D1, D2, D3)"},
			{Name: "security", Kind: "structural", Predicate: "oneof(E1, E2)"},
			{Name: "E1-deps", Kind: "dependency", Predicate: "E1 -> (D1 | D2) & D4"},
			{Name: "E2-deps", Kind: "dependency", Predicate: "E2 -> (D3 | D2) & D5"},
		},
		Actions: []ActionSpec{
			ms("A1", "E1 -> E2", 10, "replace E1 with E2"),
			ms("A2", "D1 -> D2", 10, "replace D1 with D2"),
			ms("A3", "D1 -> D3", 10, "replace D1 with D3"),
			ms("A4", "D2 -> D3", 10, "replace D2 with D3"),
			ms("A5", "D4 -> D5", 10, "replace D4 with D5"),
			ms("A6", "(D1, E1) -> (D2, E2)", 100, "A1 and A2"),
			ms("A7", "(D1, E1) -> (D3, E2)", 100, "A1 and A3"),
			ms("A8", "(D2, E1) -> (D3, E2)", 100, "A1 and A4"),
			ms("A9", "(D4, E1) -> (D5, E2)", 100, "A1 and A5"),
			ms("A10", "(D1, D4) -> (D2, D5)", 50, "A2 and A5"),
			ms("A11", "(D1, D4) -> (D3, D5)", 50, "A3 and A5"),
			ms("A12", "(D2, D4) -> (D3, D5)", 50, "A4 and A5"),
			ms("A13", "(D1, D4, E1) -> (D2, D5, E2)", 150, "A1 and A10"),
			ms("A14", "(D1, D4, E1) -> (D3, D5, E2)", 150, "A1 and A11"),
			ms("A15", "(D2, D4, E1) -> (D3, D5, E2)", 150, "A1 and A12"),
			ms("A16", "-D4", 10, "remove D4"),
			ms("A17", "+D5", 10, "insert D5"),
		},
		Source:   ConfigSpec{Vector: "0100101"},
		Target:   ConfigSpec{Vector: "1010010"},
		Dataflow: []string{"server"},
	}
}
