// Package safeadapt is a Go implementation of the safe dynamic adaptation
// process of Zhang, Cheng, Yang and McKinley, "Enabling Safe Dynamic
// Component-Based Software Adaptation" (DSN 2004 / Architecting Dependable
// Systems III, 2005).
//
// A component-based system declares its components, the dependency
// relationships among them (invariants), and the adaptive actions it
// supports, each with a fixed cost. From that description the library:
//
//   - enumerates the safe configurations (those satisfying every
//     invariant),
//   - builds the safe adaptation graph (SAG) whose vertices are safe
//     configurations and whose arcs are adaptive actions,
//   - finds the minimum adaptation path (MAP) with Dijkstra's algorithm
//     (plus k-shortest alternatives for failure recovery), and
//   - realizes the path at run time through a centralized adaptation
//     manager coordinating per-process agents, performing every adaptive
//     action in a global safe state, with timeout-based failure detection
//     and rollback.
//
// The package is a thin facade over the internal packages; see DESIGN.md
// for the full architecture and EXPERIMENTS.md for the reproduction of
// the paper's evaluation.
package safeadapt

import (
	"fmt"

	"repro/internal/action"
	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/invariant"
	"repro/internal/manager"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/sag"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// Re-exported types. The facade keeps downstream code to one import.
type (
	// Config is a system configuration (a set of components).
	Config = model.Config
	// Component describes one adaptive component.
	Component = model.Component
	// Registry assigns components stable identities.
	Registry = model.Registry
	// Invariant is one dependency relationship.
	Invariant = invariant.Invariant
	// Action is one adaptive action (insert/remove/replace, with cost).
	Action = action.Action
	// Path is a safe adaptation path through the SAG.
	Path = sag.Path
	// Graph is a safe adaptation graph.
	Graph = sag.Graph
	// LocalProcess is the hook interface an application implements per
	// process so agents can reset, adapt, resume, and roll it back.
	LocalProcess = agent.LocalProcess
	// Result is the outcome of an executed adaptation.
	Result = manager.Result
	// Spec is the declarative JSON system description.
	Spec = spec.System
	// DeployOptions configures Deploy.
	DeployOptions = core.Options
	// Deployment is a running adaptation control plane.
	Deployment = core.Deployment
	// DecomposedPlan is a per-collaborative-set adaptation plan.
	DecomposedPlan = planner.DecomposedPlan
	// Analysis is a static diagnosis of a system description.
	Analysis = planner.Analysis
	// Telemetry is a metrics-and-tracing registry. Create one with
	// NewTelemetry, pass it in DeployOptions.Telemetry, and read it back
	// via Snapshot/Spans or serve it over HTTP with Handler.
	Telemetry = telemetry.Registry
	// TelemetrySnapshot is a point-in-time export of all metrics.
	TelemetrySnapshot = telemetry.Snapshot
	// FlightRecorder is the per-node black box: a bounded ring of
	// causally stamped protocol events that dumps a JSON post-mortem
	// bundle on rollback, failure, or panic. Create with
	// NewFlightRecorder and attach via Telemetry.AttachFlight.
	FlightRecorder = telemetry.FlightRecorder
	// FlightEvent is one black-box record (Lamport-stamped).
	FlightEvent = telemetry.FlightEvent
	// FlightBundle is the JSON post-mortem artifact one node dumps;
	// telemetry.MergeTimeline / CheckCausality / RenderCrossNodeTree (or
	// `safeadaptctl postmortem`) reconstruct the global timeline from the
	// bundles of all nodes.
	FlightBundle = telemetry.Bundle
	// Explorer model-checks the adaptation protocol by deterministic
	// simulation: bounded-exhaustive DFS and seeded fuzzing over message
	// interleavings and injected failures.
	Explorer = explore.Explorer
	// ExploreOptions configures an Explorer.
	ExploreOptions = explore.Options
	// ExploreModel describes the system under exploration.
	ExploreModel = explore.Model
	// ExploreReport summarizes an exploration run.
	ExploreReport = explore.Report
)

// NewTelemetry returns an empty telemetry registry. All instrumentation
// throughout the library is nil-safe, so a nil registry (the default)
// costs nothing.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// NewFlightRecorder returns a black-box recorder for the named node.
// capacity <= 0 means the default (8192 events).
func NewFlightRecorder(node string, capacity int) *FlightRecorder {
	return telemetry.NewFlightRecorder(node, capacity)
}

// System is an analyzable adaptive system: components, invariants,
// actions, and the adaptation request endpoints.
type System struct {
	compiled *spec.Compiled
	plan     *planner.Planner
}

// New compiles a declarative Spec into a System.
func New(s *Spec) (*System, error) {
	compiled, err := s.Compile()
	if err != nil {
		return nil, err
	}
	plan, err := planner.New(compiled.Invariants, compiled.Actions)
	if err != nil {
		return nil, err
	}
	return &System{compiled: compiled, plan: plan}, nil
}

// FromJSON compiles a System from its JSON description.
func FromJSON(data []byte) (*System, error) {
	s, err := spec.Parse(data)
	if err != nil {
		return nil, err
	}
	return New(s)
}

// LoadFile compiles a System from a JSON file.
func LoadFile(path string) (*System, error) {
	s, err := spec.Load(path)
	if err != nil {
		return nil, err
	}
	return New(s)
}

// PaperCaseStudy returns the DSN 2004 video-multicast case study.
func PaperCaseStudy() (*System, error) {
	return New(spec.PaperSystem())
}

// Name returns the system's declared name.
func (s *System) Name() string { return s.compiled.Name }

// Registry returns the component registry.
func (s *System) Registry() *Registry { return s.compiled.Registry }

// Source and Target return the adaptation request endpoints declared in
// the spec.
func (s *System) Source() Config { return s.compiled.Source }

// Target returns the declared target configuration.
func (s *System) Target() Config { return s.compiled.Target }

// Actions returns the adaptive actions.
func (s *System) Actions() []Action { return s.plan.Actions() }

// SafeConfigurations enumerates every configuration satisfying all
// invariants (the paper's safe configuration set, Table 1).
func (s *System) SafeConfigurations() []Config { return s.plan.SafeConfigs() }

// IsSafe reports whether the configuration satisfies every invariant.
func (s *System) IsSafe(c Config) bool { return s.compiled.Invariants.Satisfied(c) }

// Graph builds (and caches) the safe adaptation graph (Fig. 4).
func (s *System) Graph() (*Graph, error) { return s.plan.Graph() }

// Plan returns the minimum adaptation path between two safe
// configurations (Dijkstra on the SAG).
func (s *System) Plan(source, target Config) (Path, error) {
	return s.plan.Plan(source, target)
}

// PlanRequest plans the spec's declared source → target request.
func (s *System) PlanRequest() (Path, error) {
	return s.plan.Plan(s.compiled.Source, s.compiled.Target)
}

// PlanAStar finds the MAP without materializing the full SAG, by
// heuristic-guided A* search — Sec. 7's partial exploration for large
// systems, with an admissible distance-to-target bound, still
// cost-optimal.
func (s *System) PlanAStar(source, target Config) (Path, error) {
	return s.plan.PlanAStar(source, target)
}

// Alternatives returns up to k cost-ordered paths; index 1 is the
// "second minimum adaptation path" of the failure-recovery ladder.
func (s *System) Alternatives(source, target Config, k int) ([]Path, error) {
	return s.plan.Alternatives(source, target, k)
}

// CollaborativeSets partitions components into independently adaptable
// sets (paper Sec. 7).
func (s *System) CollaborativeSets() [][]string {
	return s.compiled.Invariants.CollaborativeSets()
}

// PlanDecomposed plans per collaborative set, avoiding the whole-system
// exponential safe-set enumeration when invariants decompose (Sec. 7).
func (s *System) PlanDecomposed(source, target Config) (DecomposedPlan, error) {
	return s.plan.PlanDecomposed(source, target)
}

// Analyze statically diagnoses the system description for the declared
// adaptation request: dead components, unusable actions, reachability.
func (s *System) Analyze() (Analysis, error) {
	return s.plan.Analyze(s.compiled.Source, s.compiled.Target)
}

// Deploy starts the runtime control plane: an adaptation manager and one
// agent per process, over an in-memory transport. The procs map supplies
// a LocalProcess hook for every process hosting components.
//
// When the spec declares a dataflow and opts.ResetPhases is nil, the
// deployment derives each step's reset-phase ordering from it: upstream
// processes quiesce first so downstream components swap on drained links.
func (s *System) Deploy(procs map[string]LocalProcess, opts DeployOptions) (*Deployment, error) {
	if opts.ResetPhases == nil && len(s.compiled.Dataflow) > 0 {
		compiled := s.compiled
		opts.ResetPhases = func(_ Action, participants []string) [][]string {
			return compiled.ResetPhases(participants)
		}
	}
	return core.NewDeployment(s.compiled.Invariants, s.compiled.Actions, procs, opts)
}

// ExploreModel returns the system's declared adaptation request as a
// deterministic-exploration model (explore.ModelOf). A spec that declares
// codec tags and a dataflow gets the full packet model, CCS check
// included; one that does not is explored for the protocol-level safety
// properties: invariant satisfaction at every all-running state, rollback
// discipline, deadlock freedom, and audit conformance.
func (s *System) ExploreModel() *ExploreModel {
	return explore.ModelOf(s.compiled)
}

// Explorer builds a deterministic protocol explorer for the system's
// declared adaptation request.
func (s *System) Explorer(opts ExploreOptions) (*Explorer, error) {
	return explore.New(s.ExploreModel(), opts)
}

// FormatConfig renders a configuration in the paper's bit-vector and
// component-list notations, e.g. "0100101 {D4,D1,E1}".
func (s *System) FormatConfig(c Config) string {
	reg := s.compiled.Registry
	return fmt.Sprintf("%s %s", reg.BitVector(c), reg.Format(c))
}
