// Package fleet is the hierarchical control plane that scales the safe
// adaptation protocol from a handful of agents to fleets: a tree of
// regional coordinators (sub-managers) between the root manager and the
// agents. Each coordinator owns a shard, relays wave commands downward in
// batches (one frame per child link), and aggregates its shard's
// reset-done / adapt-done / resume-done acknowledgements into a single
// upstream ack — so an adaptation over n agents costs the root O(fan-out)
// sends and O(fan-out) ack receipts per wave, with O(log n) relay depth,
// instead of O(n) of each. Epoch fencing (the manager's crash-recovery
// incarnation counter) and causal trace context ride through every relay
// hop unchanged, so recovery and the post-mortem timeline work the same
// whether a wave ran flat or hierarchical.
package fleet

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/protocol"
)

// Coord describes one coordinator in the tree.
type Coord struct {
	// Name is the coordinator's endpoint name ("fleet-c<level>-<index>").
	Name string
	// Parent is the endpoint the coordinator acks upward to: another
	// coordinator, or protocol.ManagerName at the top of the tree.
	Parent string
	// Children are the direct downstream endpoints, in deterministic
	// order: agent names at level 0, coordinator names above.
	Children []string
	// Covers is the coordinator's transitive agent coverage, sorted.
	Covers []string
	// Level is the coordinator's height above the agents (0 = leaf).
	Level int
}

// Topology is a deterministic coordinator tree over a set of agents. The
// same agents and fan-out always produce the identical tree — shard
// assignment sorts the agent names and chunks in order — so a replayed
// exploration schedule or a recovered manager sees the same plane.
type Topology struct {
	// Fanout is the maximum number of children per node.
	Fanout int
	// Agents are the covered agent names, sorted.
	Agents []string
	// Coords lists every coordinator, leaves first, then level by level.
	Coords []Coord
	// Roots are the top-level coordinator names — the root manager's
	// direct children.
	Roots []string

	byName map[string]int    // coordinator name → index in Coords
	leaf   map[string]string // agent → leaf coordinator
}

// NewTopology builds the coordinator tree for the given agents with the
// given fan-out factor (children per node, minimum 2).
func NewTopology(agents []string, fanout int) (*Topology, error) {
	if fanout < 2 {
		return nil, fmt.Errorf("fleet: fanout must be >= 2, got %d", fanout)
	}
	if len(agents) == 0 {
		return nil, fmt.Errorf("fleet: no agents")
	}
	sorted := append([]string(nil), agents...)
	sort.Strings(sorted)
	seen := make(map[string]bool, len(sorted))
	for _, a := range sorted {
		switch {
		case a == "":
			return nil, fmt.Errorf("fleet: empty agent name")
		case a == protocol.ManagerName:
			return nil, fmt.Errorf("fleet: agent may not be named %q", a)
		case strings.HasPrefix(a, "fleet-c"):
			return nil, fmt.Errorf("fleet: agent name %q collides with the coordinator namespace", a)
		case seen[a]:
			return nil, fmt.Errorf("fleet: duplicate agent %q", a)
		}
		seen[a] = true
	}

	t := &Topology{
		Fanout: fanout,
		Agents: sorted,
		byName: make(map[string]int),
		leaf:   make(map[string]string, len(sorted)),
	}

	// Level 0: chunk the sorted agents into shards. Each higher level
	// chunks the level below until one level fits under the root manager.
	children := sorted
	level := 0
	for {
		var names []string
		for i := 0; i < len(children); i += fanout {
			end := i + fanout
			if end > len(children) {
				end = len(children)
			}
			c := Coord{
				Name:     fmt.Sprintf("fleet-c%d-%d", level, i/fanout),
				Children: children[i:end],
				Level:    level,
			}
			if level == 0 {
				c.Covers = c.Children
				for _, a := range c.Children {
					t.leaf[a] = c.Name
				}
			} else {
				for _, child := range c.Children {
					cc := &t.Coords[t.byName[child]]
					cc.Parent = c.Name
					c.Covers = append(c.Covers, cc.Covers...)
				}
			}
			t.byName[c.Name] = len(t.Coords)
			t.Coords = append(t.Coords, c)
			names = append(names, c.Name)
		}
		children = names
		level++
		if len(names) <= fanout {
			break
		}
	}
	t.Roots = children
	for _, r := range t.Roots {
		t.Coords[t.byName[r]].Parent = protocol.ManagerName
	}
	return t, nil
}

// Coord returns the named coordinator's description.
func (t *Topology) Coord(name string) (Coord, bool) {
	i, ok := t.byName[name]
	if !ok {
		return Coord{}, false
	}
	return t.Coords[i], true
}

// Uplink returns the parent end of the named node's only upward link: an
// agent's leaf coordinator, a coordinator's parent.
func (t *Topology) Uplink(name string) (string, bool) {
	if c, ok := t.Coord(name); ok {
		return c.Parent, true
	}
	leaf, ok := t.leaf[name]
	return leaf, ok
}

// NextHopDown returns the link a message for the named agent takes out
// of from (the root manager or a coordinator): the child of from whose
// subtree covers the agent — the agent itself below its leaf coordinator.
// It walks the agent's chain of parents, O(depth).
func (t *Topology) NextHopDown(from, agent string) (string, bool) {
	hop, up := agent, t.leaf[agent]
	for up != from {
		i, ok := t.byName[up]
		if !ok {
			return "", false
		}
		hop, up = up, t.Coords[i].Parent
	}
	return hop, true
}

// Depth returns the number of relay hops between the root manager and an
// agent: 1 + the height of the coordinator tree. A flat deployment has
// depth 0 by this count.
func (t *Topology) Depth() int {
	if len(t.Coords) == 0 {
		return 0
	}
	return t.Coords[len(t.Coords)-1].Level + 1
}

// String summarizes the tree ("4096 agents, fanout 64: 64 coordinators,
// depth 1+1").
func (t *Topology) String() string {
	return fmt.Sprintf("%d agents, fanout %d: %d coordinator(s) in %d level(s), %d root link(s)",
		len(t.Agents), t.Fanout, len(t.Coords), t.Depth(), len(t.Roots))
}
