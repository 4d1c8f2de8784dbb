package baseline

import (
	"fmt"
	"time"

	"repro/internal/action"
	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/paper"
	"repro/internal/video"
)

// SafeMAP runs the paper's full safe adaptation process: plan the minimum
// adaptation path over the SAG and realize it with the manager/agent
// protocol, every action in its global safe state.
type SafeMAP struct {
	// StepTimeout bounds each protocol wait. Zero means 5s.
	StepTimeout time.Duration
	// Logf, when non-nil, receives manager progress lines.
	Logf func(format string, args ...any)
}

// Name implements Strategy.
func (SafeMAP) Name() string { return "safe-map" }

// Adapt implements Strategy.
func (s SafeMAP) Adapt(sys *video.System) (Report, error) {
	rep := Report{Strategy: s.Name(), BlockedWindows: make(map[string]time.Duration)}
	stepTimeout := s.StepTimeout
	if stepTimeout <= 0 {
		stepTimeout = 5 * time.Second
	}

	scenario, err := paper.NewScenario()
	if err != nil {
		return rep, err
	}
	procs := make(map[string]agent.LocalProcess, 3)
	for name, proc := range sys.Processes() {
		procs[name] = proc
	}
	d, err := core.NewDeployment(scenario.Invariants, scenario.Actions, procs, core.Options{
		StepTimeout: stepTimeout,
		ResetPhases: func(_ action.Action, participants []string) [][]string {
			return video.SenderFirstPhases(participants)
		},
		Logf: s.Logf,
	})
	if err != nil {
		return rep, err
	}
	defer d.Close()

	start := now()
	res, err := d.Adapt(scenario.Source, scenario.Target)
	rep.Duration = since(start)
	if err != nil {
		return rep, fmt.Errorf("baseline: safe-map: %w", err)
	}
	if !res.Completed {
		return rep, fmt.Errorf("baseline: safe-map did not reach the target configuration")
	}
	for _, sr := range res.Steps {
		// Attribute each step's blocking window to the processes its
		// action touched.
		a, aerr := d.Planner().ActionByID(sr.ActionID)
		if aerr != nil {
			continue
		}
		parts, perr := a.Processes(scenario.Registry)
		if perr != nil {
			continue
		}
		for _, p := range parts {
			rep.BlockedWindows[p] += sr.BlockedFor
		}
	}
	return rep, nil
}
