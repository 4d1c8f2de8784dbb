// Package sag constructs Safe Adaptation Graphs (paper Sec. 3.1 and 4.2,
// Fig. 4) and finds minimum adaptation paths on them.
//
// A SAG's vertices are safe configurations; an arc (c1,c2) labelled with
// adaptive action a exists iff a.Apply(c1) = c2 and both c1 and c2 are
// safe. Edge weights are action costs; Dijkstra's algorithm yields the
// Minimum Adaptation Path (MAP), and Yen's algorithm yields the k shortest
// loopless paths used by the failure-recovery ladder ("try the second
// minimum adaptation path", Sec. 4.4).
package sag

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/action"
	"repro/internal/model"
)

// Edge is one adaptation step in the graph: applying Action to From yields
// To at the given Cost.
type Edge struct {
	From, To model.Config
	Action   action.Action
}

// Graph is a safe adaptation graph. Construct with Build; read-only
// afterwards and safe for concurrent use.
type Graph struct {
	reg     *model.Registry
	nodes   []model.Config
	index   map[model.Config]int
	vecs    []string // bit vectors, indexed like nodes
	out     [][]Edge // adjacency, indexed like nodes
	edgeCnt int
}

// Build constructs the SAG from the safe configuration set and the
// available adaptive actions. Actions that do not map a safe configuration
// to another safe configuration contribute no edges.
func Build(reg *model.Registry, safe []model.Config, actions []action.Action) (*Graph, error) {
	if reg == nil {
		return nil, fmt.Errorf("sag: nil registry")
	}
	if len(safe) == 0 {
		return nil, fmt.Errorf("sag: empty safe configuration set")
	}
	for _, a := range actions {
		if err := a.Validate(reg); err != nil {
			return nil, fmt.Errorf("sag: %w", err)
		}
	}
	g := &Graph{
		reg:   reg,
		nodes: make([]model.Config, len(safe)),
		index: make(map[model.Config]int, len(safe)),
		vecs:  make([]string, len(safe)),
		out:   make([][]Edge, len(safe)),
	}
	copy(g.nodes, safe)
	sort.Slice(g.nodes, func(i, j int) bool { return g.nodes[i] < g.nodes[j] })
	for i, c := range g.nodes {
		if _, dup := g.index[c]; dup {
			return nil, fmt.Errorf("sag: duplicate safe configuration %s", reg.BitVector(c))
		}
		g.index[c] = i
		g.vecs[i] = reg.BitVector(c)
	}
	for i, from := range g.nodes {
		for _, a := range actions {
			to, ok := a.Apply(reg, from)
			if !ok || to == from {
				continue
			}
			if _, safeTo := g.index[to]; !safeTo {
				continue
			}
			g.out[i] = append(g.out[i], Edge{From: from, To: to, Action: a})
			g.edgeCnt++
		}
	}
	return g, nil
}

// Registry returns the registry the graph is defined over.
func (g *Graph) Registry() *model.Registry { return g.reg }

// Nodes returns the safe configurations in ascending order.
func (g *Graph) Nodes() []model.Config {
	out := make([]model.Config, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// BitVector renders c in the paper's notation. A safe configuration's
// string was rendered once, when the graph was built; any other
// configuration falls back to Registry.BitVector.
func (g *Graph) BitVector(c model.Config) string {
	if i, ok := g.index[c]; ok {
		return g.vecs[i]
	}
	return g.reg.BitVector(c)
}

// NumNodes returns the vertex count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the arc count.
func (g *Graph) NumEdges() int { return g.edgeCnt }

// HasNode reports whether c is a vertex of the graph.
func (g *Graph) HasNode(c model.Config) bool {
	_, ok := g.index[c]
	return ok
}

// OutEdges returns the arcs leaving c.
func (g *Graph) OutEdges(c model.Config) []Edge {
	i, ok := g.index[c]
	if !ok {
		return nil
	}
	out := make([]Edge, len(g.out[i]))
	copy(out, g.out[i])
	return out
}

// Path is a sequence of adaptation steps from a source to a target
// configuration.
type Path struct {
	// Steps are the edges traversed, in order. An empty Steps means source
	// equals target.
	Steps []Edge
}

// Cost returns the total cost of the path.
func (p Path) Cost() time.Duration {
	var total time.Duration
	for _, e := range p.Steps {
		total += e.Action.Cost
	}
	return total
}

// Configs returns the configuration sequence visited by the path,
// including source and target. For an empty path it returns nil.
func (p Path) Configs() []model.Config {
	if len(p.Steps) == 0 {
		return nil
	}
	out := make([]model.Config, 0, len(p.Steps)+1)
	out = append(out, p.Steps[0].From)
	for _, e := range p.Steps {
		out = append(out, e.To)
	}
	return out
}

// ActionIDs returns the action identifiers along the path, e.g.
// ["A2","A17","A1","A16","A4"].
func (p Path) ActionIDs() []string {
	out := make([]string, len(p.Steps))
	for i, e := range p.Steps {
		out[i] = e.Action.ID
	}
	return out
}

// String renders the path as "A2, A17, A1, A16, A4 (cost 50ms)".
func (p Path) String() string {
	if len(p.Steps) == 0 {
		return "<empty path>"
	}
	return strings.Join(p.ActionIDs(), ", ") + fmt.Sprintf(" (cost %v)", p.Cost())
}

// ErrNoPath is returned when the target is unreachable from the source.
type ErrNoPath struct {
	Source, Target string
}

// Error implements error.
func (e *ErrNoPath) Error() string {
	return fmt.Sprintf("sag: no adaptation path from %s to %s", e.Source, e.Target)
}

// ShortestPath runs Dijkstra's algorithm and returns the minimum
// adaptation path (MAP) from source to target. Ties are broken
// deterministically by preferring fewer steps, then lexicographically
// smaller action-ID sequences, so results are stable across runs.
func (g *Graph) ShortestPath(source, target model.Config) (Path, error) {
	si, ok := g.index[source]
	if !ok {
		return Path{}, fmt.Errorf("sag: source %s is not a safe configuration", g.reg.BitVector(source))
	}
	ti, ok := g.index[target]
	if !ok {
		return Path{}, fmt.Errorf("sag: target %s is not a safe configuration", g.reg.BitVector(target))
	}
	if si == ti {
		return Path{}, nil
	}

	if path, ok := g.dijkstra(si, ti, nil, true); ok {
		return path, nil
	}
	return Path{}, &ErrNoPath{Source: g.reg.BitVector(source), Target: g.reg.BitVector(target)}
}

// dijkstra searches from node si to node ti over the edges banned does not
// exclude (nil excludes none) and reports whether ti was reached. With
// tieBreak a tied distance goes to fewer hops, then the smaller action ID
// (ShortestPath's rule); without, the first path found keeps it.
func (g *Graph) dijkstra(si, ti int, banned *banSet, tieBreak bool) (Path, bool) {
	nodes := make([]searchNode, len(g.nodes)) // one allocation for every node's state
	for i := range nodes {
		nodes[i] = searchNode{dist: unreached, prev: -1}
	}
	nodes[si].dist = 0
	pq := make(nodeHeap, 0, len(g.nodes))
	pq.push(nodeDist{node: si, dist: 0})
	for len(pq) > 0 {
		u := pq.pop().node
		if nodes[u].done {
			continue
		}
		nodes[u].done = true
		if u == ti {
			break
		}
		for _, e := range g.out[u] {
			v := g.index[e.To]
			n := &nodes[v]
			if n.done || banned.excludes(e) {
				continue
			}
			nd := nodes[u].dist + e.Action.Cost
			nh := nodes[u].hops + 1
			better := nd < n.dist || (tieBreak && nd == n.dist &&
				(nh < n.hops || (nh == n.hops && n.prev >= 0 && e.Action.ID < n.via.Action.ID)))
			if better {
				*n = searchNode{dist: nd, hops: nh, prev: u, via: e}
				pq.push(nodeDist{node: v, dist: nd})
			}
		}
	}
	if nodes[ti].dist == unreached {
		return Path{}, false
	}
	steps := make([]Edge, nodes[ti].hops)
	for at, i := ti, len(steps)-1; i >= 0; at, i = nodes[at].prev, i-1 {
		steps[i] = nodes[at].via
	}
	return Path{Steps: steps}, true
}

// unreached is the distance of a node no search has reached.
const unreached = time.Duration(1<<63 - 1)

// searchNode is one node's Dijkstra state: distance and hop count from the
// source, the predecessor and the edge taken from it, and whether the
// node is settled.
type searchNode struct {
	dist time.Duration
	hops int
	prev int
	via  Edge
	done bool
}

// nodeDist is a priority-queue entry.
type nodeDist struct {
	node int
	dist time.Duration
}

// nodeHeap is a binary min-heap of nodeDist ordered by dist. push and pop
// sift exactly as container/heap does, so equal distances pop in the same
// order and every plan is unchanged; typed, an entry is never boxed.
type nodeHeap []nodeDist

func (h *nodeHeap) push(x nodeDist) {
	*h = append(*h, x)
	q := *h
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || q[j].dist >= q[i].dist {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *nodeHeap) pop() nodeDist {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].dist < q[j].dist {
			j = j2
		}
		if q[j].dist >= q[i].dist {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}
