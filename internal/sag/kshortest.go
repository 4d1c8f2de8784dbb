package sag

import (
	"sort"

	"repro/internal/model"
)

// KShortestPaths returns up to k loopless shortest paths from source to
// target in ascending cost order, computed with Yen's algorithm over
// repeated Dijkstra runs. The first path equals ShortestPath's result.
// The failure-recovery ladder uses index 1 ("the second minimum adaptation
// path", paper Sec. 4.4) and beyond. It returns *ErrNoPath when not even
// one path exists.
func (g *Graph) KShortestPaths(source, target model.Config, k int) ([]Path, error) {
	if k <= 0 {
		return nil, nil
	}
	first, err := g.ShortestPath(source, target)
	if err != nil {
		return nil, err
	}
	paths := []Path{first}
	if k == 1 || len(first.Steps) == 0 {
		return paths, nil
	}

	var candidates []Path
	for len(paths) < k {
		prev := paths[len(paths)-1]
		prevConfigs := prev.Configs()
		// For each spur node in the previous path...
		for i := 0; i < len(prev.Steps); i++ {
			spur := prevConfigs[i]
			rootSteps := prev.Steps[:i]

			banned := newBanSet()
			// Ban edges that would recreate any already-accepted path
			// sharing this root.
			for _, p := range paths {
				if len(p.Steps) > i && sameSteps(p.Steps[:i], rootSteps) {
					banned.banEdge(p.Steps[i])
				}
			}
			// Ban root nodes (except the spur itself) to keep paths
			// loopless.
			for _, c := range prevConfigs[:i] {
				banned.banNode(c)
			}

			spurPath, spurErr := g.shortestPathAvoiding(spur, target, banned)
			if spurErr != nil {
				continue // no spur path; try next spur node
			}
			total := Path{Steps: make([]Edge, 0, len(rootSteps)+len(spurPath.Steps))}
			total.Steps = append(total.Steps, rootSteps...)
			total.Steps = append(total.Steps, spurPath.Steps...)
			if !containsPath(paths, total) && !containsPath(candidates, total) {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			ca, cb := candidates[a].Cost(), candidates[b].Cost()
			if ca != cb {
				return ca < cb
			}
			if la, lb := len(candidates[a].Steps), len(candidates[b].Steps); la != lb {
				return la < lb
			}
			return lessActionIDs(candidates[a], candidates[b])
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths, nil
}

// banSet tracks nodes and edges excluded from a Dijkstra run.
type banSet struct {
	nodes map[model.Config]bool
	edges map[edgeKey]bool
}

type edgeKey struct {
	from, to model.Config
	actionID string
}

func newBanSet() *banSet {
	return &banSet{
		nodes: make(map[model.Config]bool),
		edges: make(map[edgeKey]bool),
	}
}

func (b *banSet) banNode(c model.Config) { b.nodes[c] = true }

func (b *banSet) banEdge(e Edge) {
	b.edges[edgeKey{from: e.From, to: e.To, actionID: e.Action.ID}] = true
}

// excludes reports whether e or its head is banned; a nil set bans nothing.
func (b *banSet) excludes(e Edge) bool {
	return b != nil && (b.nodes[e.To] || b.edges[edgeKey{from: e.From, to: e.To, actionID: e.Action.ID}])
}

// shortestPathAvoiding is Dijkstra restricted to edges and nodes not in
// the ban set.
func (g *Graph) shortestPathAvoiding(source, target model.Config, banned *banSet) (Path, error) {
	si, ok := g.index[source]
	if !ok || banned.nodes[source] {
		return Path{}, &ErrNoPath{Source: g.reg.BitVector(source), Target: g.reg.BitVector(target)}
	}
	ti, ok := g.index[target]
	if !ok {
		return Path{}, &ErrNoPath{Source: g.reg.BitVector(source), Target: g.reg.BitVector(target)}
	}
	if si == ti {
		return Path{}, nil
	}

	if path, ok := g.dijkstra(si, ti, banned, false); ok {
		return path, nil
	}
	return Path{}, &ErrNoPath{Source: g.reg.BitVector(source), Target: g.reg.BitVector(target)}
}

func sameSteps(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].From != b[i].From || a[i].To != b[i].To || a[i].Action.ID != b[i].Action.ID {
			return false
		}
	}
	return true
}

func containsPath(paths []Path, p Path) bool {
	for _, q := range paths {
		if sameSteps(q.Steps, p.Steps) {
			return true
		}
	}
	return false
}

func lessActionIDs(a, b Path) bool {
	for i := range a.Steps {
		if i >= len(b.Steps) {
			return false
		}
		if a.Steps[i].Action.ID != b.Steps[i].Action.ID {
			return a.Steps[i].Action.ID < b.Steps[i].Action.ID
		}
	}
	return len(a.Steps) < len(b.Steps)
}
