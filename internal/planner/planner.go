// Package planner implements the detection-and-setup phase of the safe
// adaptation process (paper Sec. 4.2): constructing the safe configuration
// set, building the safe adaptation graph, and finding minimum adaptation
// paths — plus the alternative paths of the failure-recovery ladder
// (Sec. 4.4) and the scalability extensions sketched in Sec. 7 (partial SAG
// exploration and collaborative-set decomposition).
package planner

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/action"
	"repro/internal/invariant"
	"repro/internal/model"
	"repro/internal/sag"
	"repro/internal/telemetry"
)

// Planner performs the detection-and-setup phase for one system. It is
// the data structure P = (S, I, T, R, A) of Sec. 4.1, with S implicit
// (all configurations), I the invariant set, T the actions, and A the
// per-action costs carried on the actions themselves. (R, the mapping to
// implementation code, lives in the realization layer.)
type Planner struct {
	reg     *model.Registry
	invs    *invariant.Set
	actions []action.Action
	// waves holds each action's one-phase reset wave, by ID; see
	// Participants.
	waves map[string][][]string

	// tel, when non-nil, records the detection-and-setup timings the
	// paper reports (Sec. 5.1): safe-set enumeration, SAG construction,
	// Dijkstra/A*/k-shortest search, and cache effectiveness.
	tel *telemetry.Registry

	// Cached results of the eager pipeline. Populated lazily.
	safe  []model.Config
	graph *sag.Graph

	// now supplies the timestamps feeding the latency histograms.
	now func() time.Time
}

// New validates the actions against the registry and returns a planner.
func New(invs *invariant.Set, actions []action.Action) (*Planner, error) {
	if invs == nil {
		return nil, fmt.Errorf("planner: nil invariant set")
	}
	reg := invs.Registry()
	waves := make(map[string][][]string, len(actions))
	for _, a := range actions {
		if err := a.Validate(reg); err != nil {
			return nil, fmt.Errorf("planner: %w", err)
		}
		if waves[a.ID] != nil {
			return nil, fmt.Errorf("planner: duplicate action ID %q", a.ID)
		}
		ps, err := a.Processes(reg)
		if err != nil {
			return nil, fmt.Errorf("planner: %w", err)
		}
		waves[a.ID] = [][]string{slices.Clip(ps)}
	}
	p := &Planner{
		reg:     reg,
		invs:    invs,
		waves:   waves,
		actions: make([]action.Action, len(actions)),
		//safeadaptvet:allow determinism -- the single injectable wall-clock seam; it only feeds latency histograms, never planning decisions
		now: time.Now,
	}
	copy(p.actions, actions)
	return p, nil
}

// Registry returns the component registry.
func (p *Planner) Registry() *model.Registry { return p.reg }

// BitVector renders c in the paper's notation: from the SAG's vector table
// once the graph is built and c is one of its safe configurations, from
// the registry otherwise.
func (p *Planner) BitVector(c model.Config) string {
	if p.graph != nil {
		return p.graph.BitVector(c)
	}
	return p.reg.BitVector(c)
}

// SetTelemetry installs the telemetry registry the planner reports its
// timings and cache statistics to. Nil disables instrumentation. Call it
// before planning starts.
func (p *Planner) SetTelemetry(tel *telemetry.Registry) { p.tel = tel }

// Invariants returns the invariant set.
func (p *Planner) Invariants() *invariant.Set { return p.invs }

// Actions returns a copy of the adaptive actions.
func (p *Planner) Actions() []action.Action {
	out := make([]action.Action, len(p.actions))
	copy(out, p.actions)
	return out
}

// ActionByID returns the action with the given identifier.
func (p *Planner) ActionByID(id string) (action.Action, error) {
	for _, a := range p.actions {
		if a.ID == id {
			return a, nil
		}
	}
	return action.Action{}, fmt.Errorf("planner: unknown action %q", id)
}

// Participants returns the sorted processes whose agents take part in the
// action with the given ID, and its one-phase reset wave
// [][]string{participants}. Both are computed once, in New, and shared by
// every step of the action: callers must not modify them. Their cap equals
// their len, so an append copies.
func (p *Planner) Participants(actionID string) (participants []string, wave [][]string, err error) {
	wave, ok := p.waves[actionID]
	if !ok {
		return nil, nil, fmt.Errorf("planner: unknown action %q", actionID)
	}
	return wave[0], wave, nil
}

// SafeConfigs returns the safe configuration set (Sec. 4.2 step 1),
// computing and caching it on first use.
func (p *Planner) SafeConfigs() []model.Config {
	if p.safe == nil {
		start := p.now()
		p.safe = p.invs.SafeConfigs()
		p.tel.Histogram("planner.safe_enum.latency").Observe(p.now().Sub(start))
		p.tel.Gauge("planner.safe_configs").Set(int64(len(p.safe)))
	} else {
		p.tel.Counter("planner.safe_enum.cache_hits").Inc()
	}
	out := make([]model.Config, len(p.safe))
	copy(out, p.safe)
	return out
}

// Graph returns the safe adaptation graph (Sec. 4.2 step 2), computing
// and caching it on first use.
func (p *Planner) Graph() (*sag.Graph, error) {
	if p.graph == nil {
		start := p.now()
		g, err := sag.Build(p.reg, p.SafeConfigs(), p.actions)
		if err != nil {
			return nil, err
		}
		p.tel.Histogram("planner.graph_build.latency").Observe(p.now().Sub(start))
		p.tel.Gauge("planner.sag.nodes").Set(int64(g.NumNodes()))
		p.tel.Gauge("planner.sag.edges").Set(int64(g.NumEdges()))
		p.graph = g
	} else {
		p.tel.Counter("planner.graph.cache_hits").Inc()
	}
	return p.graph, nil
}

// Plan finds the minimum adaptation path from source to target (Sec. 4.2
// step 3). Both configurations must be safe.
func (p *Planner) Plan(source, target model.Config) (sag.Path, error) {
	if err := p.checkSafe("source", source); err != nil {
		return sag.Path{}, err
	}
	if err := p.checkSafe("target", target); err != nil {
		return sag.Path{}, err
	}
	g, err := p.Graph()
	if err != nil {
		return sag.Path{}, err
	}
	p.tel.Counter("planner.plans").Inc()
	start := p.now()
	path, err := g.ShortestPath(source, target)
	p.tel.Histogram("planner.dijkstra.latency").Observe(p.now().Sub(start))
	return path, err
}

// Alternatives returns up to k minimum-cost-ordered paths from source to
// target; index 0 is the MAP, index 1 the "second minimum adaptation
// path" the failure-recovery ladder falls back to.
func (p *Planner) Alternatives(source, target model.Config, k int) ([]sag.Path, error) {
	g, err := p.Graph()
	if err != nil {
		return nil, err
	}
	p.tel.Counter("planner.kshortest.plans").Inc()
	start := p.now()
	paths, err := g.KShortestPaths(source, target, k)
	p.tel.Histogram("planner.kshortest.latency").Observe(p.now().Sub(start))
	return paths, err
}

func (p *Planner) checkSafe(role string, c model.Config) error {
	if viol := p.invs.Violations(c); len(viol) > 0 {
		return fmt.Errorf("planner: %s configuration %s is unsafe (violates %q)",
			role, p.reg.BitVector(c), viol[0].Name)
	}
	return nil
}
