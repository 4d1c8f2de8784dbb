// Package core assembles the safe adaptation process end to end: given a
// system description (components, invariants, adaptive actions) and the
// per-process LocalProcess hooks, it deploys an adaptation manager and one
// agent per process over a transport, and exposes the paper's full
// pipeline — safe-configuration analysis, SAG construction, MAP planning,
// and protocol-coordinated realization with failure recovery.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/action"
	"repro/internal/agent"
	"repro/internal/invariant"
	"repro/internal/manager"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/protocol"
	"repro/internal/sag"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Deployment is a running safe-adaptation control plane: one manager and
// one agent per process, wired over an in-memory bus (single OS process)
// — the common shape for simulations, tests, and the examples. For true
// multi-host deployments, assemble transport.ListenTCP and
// transport.DialReconnectingTCP endpoints manually with the same
// planner/agent/manager packages.
type Deployment struct {
	planner *planner.Planner
	manager *manager.Manager
	bus     *transport.Bus
	agents  map[string]*agent.Agent
}

// Options configures a Deployment.
type Options struct {
	// StepTimeout bounds each protocol wait (default 2s).
	StepTimeout time.Duration
	// ResetTimeout bounds each agent's drive to its safe state
	// (default: StepTimeout).
	ResetTimeout time.Duration
	// ResetPhases optionally orders each step's reset wave (see
	// manager.Options.ResetPhases).
	ResetPhases func(a action.Action, participants []string) [][]string
	// Logf receives progress lines when non-nil.
	Logf func(format string, args ...any)
	// Telemetry, when non-nil, instruments the whole deployment: planner
	// timings, manager spans and counters, agent latencies, and transport
	// traffic all land in this registry.
	Telemetry *telemetry.Registry
}

// NewDeployment validates the system description, builds the planner, and
// starts one agent per process with the supplied LocalProcess hooks.
// Every process hosting a component must have a hook.
func NewDeployment(invs *invariant.Set, actions []action.Action, procs map[string]agent.LocalProcess, opts Options) (*Deployment, error) {
	plan, err := planner.New(invs, actions)
	if err != nil {
		return nil, err
	}
	plan.SetTelemetry(opts.Telemetry)
	reg := invs.Registry()
	for _, p := range reg.Processes() {
		if _, ok := procs[p]; !ok {
			return nil, fmt.Errorf("core: no LocalProcess for process %q", p)
		}
	}
	if opts.StepTimeout <= 0 {
		opts.StepTimeout = 2 * time.Second
	}
	if opts.ResetTimeout <= 0 {
		opts.ResetTimeout = opts.StepTimeout
	}

	bus := transport.NewBus()
	bus.SetTelemetry(opts.Telemetry)
	mgrEP, err := bus.Endpoint(protocol.ManagerName)
	if err != nil {
		_ = bus.Close()
		return nil, err
	}
	mgr, err := manager.New(mgrEP, plan, manager.Options{
		StepTimeout: opts.StepTimeout,
		ResetPhases: opts.ResetPhases,
		Logf:        opts.Logf,
		Telemetry:   opts.Telemetry,
	})
	if err != nil {
		_ = bus.Close()
		return nil, err
	}

	processOf := func(component string) string {
		p, perr := reg.ProcessOf(component)
		if perr != nil {
			return ""
		}
		return p
	}
	d := &Deployment{
		planner: plan,
		manager: mgr,
		bus:     bus,
		agents:  make(map[string]*agent.Agent, len(procs)),
	}
	for name, proc := range procs {
		ep, err := bus.Endpoint(name)
		if err != nil {
			d.Close()
			return nil, err
		}
		ag, err := agent.New(name, ep, proc, agent.Options{
			ResetTimeout: opts.ResetTimeout,
			ProcessOf:    processOf,
			Telemetry:    opts.Telemetry,
		})
		if err != nil {
			d.Close()
			return nil, err
		}
		d.agents[name] = ag
		go ag.Run()
	}
	return d, nil
}

// Planner exposes the detection-and-setup pipeline.
func (d *Deployment) Planner() *planner.Planner { return d.planner }

// Manager exposes the adaptation manager (state and trace inspection).
func (d *Deployment) Manager() *manager.Manager { return d.manager }

// Agent returns the agent attached to the named process.
func (d *Deployment) Agent(process string) (*agent.Agent, error) {
	ag, ok := d.agents[process]
	if !ok {
		return nil, fmt.Errorf("core: no agent for process %q", process)
	}
	return ag, nil
}

// SafeConfigs returns the safe configuration set.
func (d *Deployment) SafeConfigs() []model.Config { return d.planner.SafeConfigs() }

// Plan returns the minimum adaptation path from source to target.
func (d *Deployment) Plan(source, target model.Config) (sag.Path, error) {
	return d.planner.Plan(source, target)
}

// Adapt executes an adaptation request: plan the MAP and realize it with
// the coordination protocol, every action in its global safe state.
func (d *Deployment) Adapt(source, target model.Config) (manager.Result, error) {
	return d.manager.Execute(source, target)
}

// AdaptContext is Adapt with cancellation; see manager.ExecuteContext for
// the abort semantics.
func (d *Deployment) AdaptContext(ctx context.Context, source, target model.Config) (manager.Result, error) {
	return d.manager.ExecuteContext(ctx, source, target)
}

// Close stops the agents and tears the transport down.
func (d *Deployment) Close() {
	for _, ag := range d.agents {
		ag.Close()
	}
	_ = d.bus.Close()
}
