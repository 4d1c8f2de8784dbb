package sag

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/model"
)

// The searches below are the container/heap versions ShortestPath and
// shortestPathAvoiding replaced, kept as the reference the typed heap must
// match plan for plan.

type refHeap []nodeDist

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(nodeDist)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refSearch is Dijkstra over g with container/heap. With tieBreak it is
// ShortestPath's search (fewer hops, then the smaller action ID, win a tied
// distance); without, shortestPathAvoiding's.
func refSearch(g *Graph, source, target model.Config, banned *banSet, tieBreak bool) (Path, error) {
	si, ok := g.index[source]
	ti, ok2 := g.index[target]
	if !ok || !ok2 || banned.nodes[source] {
		return Path{}, &ErrNoPath{}
	}
	if si == ti {
		return Path{}, nil
	}
	const inf = time.Duration(1<<63 - 1)
	dist := make([]time.Duration, len(g.nodes))
	hops := make([]int, len(g.nodes))
	prev := make([]int, len(g.nodes))
	via := make([]Edge, len(g.nodes))
	done := make([]bool, len(g.nodes))
	for i := range dist {
		dist[i] = inf
		prev[i] = -1
	}
	dist[si] = 0
	pq := &refHeap{}
	heap.Push(pq, nodeDist{node: si})
	for pq.Len() > 0 {
		u := heap.Pop(pq).(nodeDist).node
		if done[u] {
			continue
		}
		done[u] = true
		if u == ti {
			break
		}
		for _, e := range g.out[u] {
			if banned.excludes(e) {
				continue
			}
			v := g.index[e.To]
			if done[v] {
				continue
			}
			nd, nh := dist[u]+e.Action.Cost, hops[u]+1
			better := nd < dist[v]
			if tieBreak {
				better = better || (nd == dist[v] && nh < hops[v]) ||
					(nd == dist[v] && nh == hops[v] && prev[v] >= 0 && e.Action.ID < via[v].Action.ID)
			}
			if better {
				dist[v], hops[v], prev[v], via[v] = nd, nh, u, e
				heap.Push(pq, nodeDist{node: v, dist: nd})
			}
		}
	}
	if dist[ti] == inf {
		return Path{}, &ErrNoPath{}
	}
	var rev []Edge
	for at := ti; at != si; at = prev[at] {
		rev = append(rev, via[at])
	}
	steps := make([]Edge, len(rev))
	for i := range rev {
		steps[i] = rev[len(rev)-1-i]
	}
	return Path{Steps: steps}, nil
}

// refKShortest is KShortestPaths' Yen loop over the reference searches.
func refKShortest(g *Graph, source, target model.Config, k int) ([]Path, error) {
	first, err := refSearch(g, source, target, newBanSet(), true)
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
		for i := 0; i < len(prev.Steps); i++ {
			rootSteps := prev.Steps[:i]
			banned := newBanSet()
			for _, p := range paths {
				if len(p.Steps) > i && sameSteps(p.Steps[:i], rootSteps) {
					banned.banEdge(p.Steps[i])
				}
			}
			for _, c := range prevConfigs[:i] {
				banned.banNode(c)
			}
			spur, err := refSearch(g, prevConfigs[i], target, banned, false)
			if err != nil {
				continue
			}
			total := Path{Steps: append(append([]Edge{}, rootSteps...), spur.Steps...)}
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

// randomGraph builds a SAG over six components on two processes: a random
// half of the configurations is safe, and twenty actions of one or two
// operations cost 1–3 ms, so equal costs and equal hop counts abound.
func randomGraph(t *testing.T, rng *rand.Rand) *Graph {
	t.Helper()
	const n = 6
	comps := make([]model.Component, n)
	for i := range comps {
		comps[i] = model.Component{Name: fmt.Sprintf("C%d", i), Process: fmt.Sprintf("p%d", i%2)}
	}
	reg, err := model.NewRegistry(comps...)
	if err != nil {
		t.Fatal(err)
	}
	var safe []model.Config
	for c := model.Config(0); c < 1<<n; c++ {
		if rng.Intn(2) == 0 {
			safe = append(safe, c)
		}
	}
	if len(safe) == 0 {
		safe = append(safe, 0)
	}
	name := func() string { return comps[rng.Intn(n)].Name }
	var actions []action.Action
	for i := 0; i < 20; i++ {
		a := action.Action{ID: fmt.Sprintf("A%02d", i), Cost: time.Duration(1+rng.Intn(3)) * time.Millisecond}
		for j := 0; j <= rng.Intn(2); j++ {
			switch rng.Intn(3) {
			case 0:
				a.Ops = append(a.Ops, action.Op{Kind: action.Insert, New: name()})
			case 1:
				a.Ops = append(a.Ops, action.Op{Kind: action.Remove, Old: name()})
			default:
				if o, nw := name(), name(); o != nw {
					a.Ops = append(a.Ops, action.Op{Kind: action.Replace, Old: o, New: nw})
				} else {
					a.Ops = append(a.Ops, action.Op{Kind: action.Insert, New: nw})
				}
			}
		}
		actions = append(actions, a)
	}
	g, err := Build(reg, safe, actions)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTypedHeapMatchesContainerHeap holds the typed heap to container/heap
// plan for plan: on seeded random graphs full of tied costs and tied hop
// counts, ShortestPath and KShortestPaths return exactly the reference's
// paths for every pair of safe configurations.
func TestTypedHeapMatchesContainerHeap(t *testing.T) {
	pairs := 0
	for seed := int64(1); seed <= 8; seed++ {
		g := randomGraph(t, rand.New(rand.NewSource(seed)))
		for _, s := range g.nodes {
			for _, d := range g.nodes {
				got, err := g.ShortestPath(s, d)
				want, werr := refSearch(g, s, d, newBanSet(), true)
				if (err != nil) != (werr != nil) || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %s → %s: ShortestPath = %v, %v; reference %v, %v",
						seed, g.BitVector(s), g.BitVector(d), got, err, want, werr)
				}
				gotK, err := g.KShortestPaths(s, d, 4)
				wantK, werr := refKShortest(g, s, d, 4)
				if (err != nil) != (werr != nil) || !reflect.DeepEqual(gotK, wantK) {
					t.Fatalf("seed %d, %s → %s: KShortestPaths = %v, %v; reference %v, %v",
						seed, g.BitVector(s), g.BitVector(d), gotK, err, wantK, werr)
				}
				if err == nil {
					pairs++
				}
			}
		}
	}
	t.Logf("%d connected pairs", pairs)
	if pairs < 1000 {
		t.Fatalf("only %d connected pairs compared; the generator is too sparse to mean anything", pairs)
	}
}

// TestShortestPathAllocs bounds a MAP search on the paper's SAG: the node
// states, the heap and the returned steps — three allocations.
func TestShortestPathAllocs(t *testing.T) {
	g, _, src, tgt := buildPaperGraph(t)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := g.ShortestPath(src, tgt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("ShortestPath allocates %.1f per call, want at most 3", allocs)
	}
}

// TestBitVectorTable checks the graph's vector table against the registry
// for every configuration, safe or not.
func TestBitVectorTable(t *testing.T) {
	g, reg, _, _ := buildPaperGraph(t)
	for c := model.Config(0); c < 1<<reg.Len(); c++ {
		if got, want := g.BitVector(c), reg.BitVector(c); got != want {
			t.Fatalf("BitVector(%d) = %q, want %q", c, got, want)
		}
	}
	safe := g.nodes[0]
	if allocs := testing.AllocsPerRun(100, func() { _ = g.BitVector(safe) }); allocs != 0 {
		t.Fatalf("BitVector of a safe configuration allocates %.1f, want 0", allocs)
	}
}
