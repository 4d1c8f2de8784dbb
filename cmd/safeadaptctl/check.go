package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/explore"
)

// check model-checks the adaptation protocol: exhaustive bounded DFS
// over message interleavings and injected failures, optional seeded
// schedule fuzzing, schedule replay, and the mutation self-test that
// proves the checker detects a broken global safe condition.
func check(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	file := fs.String("f", "", "system description JSON (default: built-in case study with its full packet model)")
	fleetMode := fs.Bool("fleet", false, "model-check the hierarchical fleet plane: 1 root, 2 coordinators, 4 agents, with coordinator crashes in the -crash sweep")
	depth := fs.Int("depth", 8, "DFS bound: alternatives are explored at the first N choice points")
	faults := fs.Int("faults", 1, "failure-injection budget per execution (-1 disables)")
	packets := fs.Int("packets", 1, "application packet budget per execution (-1 disables)")
	fuzzN := fs.Int("fuzz", 0, "additionally run N random schedules")
	crashN := fs.Int("crash", -1, "crash sweep: kill the manager at every journal record boundary (and mid-fsync), with N extra fuzzed schedules per boundary; -1 disables")
	churnN := fs.Int("churn", -1, "leader-churn sweep: replicate the journal to two hot standbys, kill the leader at every record boundary and race takeover candidates (single, fenced-loser and stale-re-drive doubles), with N extra fuzzed schedules per boundary; -1 disables")
	seed := fs.Int64("seed", 1, "fuzz seed; a seed reproduces its schedules exactly")
	selftest := fs.Bool("selftest", false, "mutation self-test: disable the global-safe-condition drain and demand a violation")
	replay := fs.String("replay", "", "replay one schedule (comma-separated choice indices) and print its trace")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var m *explore.Model
	var label string
	if *fleetMode {
		if *file != "" {
			return fmt.Errorf("check: -fleet uses the built-in fleet model; drop -f")
		}
		fm, err := explore.FleetModel()
		if err != nil {
			return err
		}
		m, label = fm, "built-in fleet plane (1 root, 2 coordinators, 4 agents)"
	} else if *file == "" {
		pm, err := explore.PaperModel()
		if err != nil {
			return err
		}
		m, label = pm, "built-in case study (DES-64 -> DES-128, full packet model)"
	} else {
		sys, err := loadSystem(*file)
		if err != nil {
			return err
		}
		m, label = sys.ExploreModel(), sys.Name()+" (full packet model)"
		if len(m.Flows) == 0 {
			label = sys.Name() + " (protocol-level model)"
		}
	}

	opts := explore.Options{Depth: *depth, MaxFaults: *faults, MaxPackets: *packets, DisableDrain: *selftest}
	x, err := explore.New(m, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "model: %s\n", label)

	if *replay != "" {
		return checkReplay(x, *replay, out)
	}
	if *selftest {
		return checkSelfTest(x, out)
	}

	fmt.Fprintf(out, "exhaustive: depth %d, fault budget %d, packet budget %d\n", *depth, *faults, *packets)
	start := time.Now()
	rep, err := x.Explore()
	if err != nil {
		return err
	}
	printReport(out, rep, time.Since(start))

	if *fuzzN > 0 {
		fmt.Fprintf(out, "fuzz: %d schedules from seed %d\n", *fuzzN, *seed)
		start = time.Now()
		frep, err := x.Fuzz(*seed, *fuzzN)
		if err != nil {
			return err
		}
		printReport(out, frep, time.Since(start))
		rep.Violations = append(rep.Violations, frep.Violations...)
	}

	if *crashN >= 0 {
		fmt.Fprintf(out, "crash sweep: manager killed at every journal record boundary (+%d fuzzed schedules per boundary, seed %d)\n", *crashN, *seed)
		start = time.Now()
		crep, err := x.CrashSweep(*seed, *crashN)
		if err != nil {
			return err
		}
		printReport(out, crep, time.Since(start))
		fmt.Fprintf(out, "  manager crashes:    %d (all recovered)\n", crep.Crashes)
		if crep.CoordCrashes > 0 {
			fmt.Fprintf(out, "  coordinator crashes: %d (all restarted stateless)\n", crep.CoordCrashes)
		}
		rep.Violations = append(rep.Violations, crep.Violations...)
	}

	if *churnN >= 0 {
		if *fleetMode {
			return fmt.Errorf("check: -churn models a single-manager replication plane; drop -fleet")
		}
		fmt.Fprintf(out, "churn sweep: leader killed at every journal record boundary with hot-standby takeover races (+%d fuzzed schedules per boundary, seed %d)\n", *churnN, *seed)
		start = time.Now()
		chrep, err := x.ChurnSweep(*seed, *churnN)
		if err != nil {
			return err
		}
		printReport(out, chrep, time.Since(start))
		fmt.Fprintf(out, "  leader crashes:     %d\n", chrep.Crashes)
		fmt.Fprintf(out, "  standby takeovers:  %d (incl. fenced losers and stale re-drives)\n", chrep.Takeovers)
		rep.Violations = append(rep.Violations, chrep.Violations...)
	}

	if len(rep.Violations) > 0 {
		printViolations(out, x, rep.Violations)
		return fmt.Errorf("%d safety violation(s) found", len(rep.Violations))
	}
	fmt.Fprintln(out, "no safety violations")
	return nil
}

func printReport(out io.Writer, rep *explore.Report, elapsed time.Duration) {
	fmt.Fprintf(out, "  states explored:    %d\n", rep.States)
	fmt.Fprintf(out, "  distinct schedules: %d\n", rep.Schedules)
	fmt.Fprintf(out, "  violations:         %d\n", len(rep.Violations))
	fmt.Fprintf(out, "  wall clock:         %v\n", elapsed.Round(time.Millisecond))
	if rep.Truncated {
		fmt.Fprintln(out, "  (truncated by schedule or violation cap)")
	}
}

func printViolations(out io.Writer, x *explore.Explorer, vs []explore.Violation) {
	for i, v := range vs {
		fmt.Fprintf(out, "violation %d: %v\n", i+1, v)
	}
	// The first violation's minimal reproducing schedule, step by step.
	if trace, err := x.ReplayTrace(vs[0].Schedule); err == nil {
		fmt.Fprintf(out, "reproducing schedule %v (replay with -replay %s):\n",
			vs[0].Schedule, scheduleArg(vs[0].Schedule))
		for _, line := range trace {
			fmt.Fprintf(out, "  %s\n", line)
		}
	}
}

// checkSelfTest verifies the checker has teeth: with the drain mutation
// the explorer must find a violation, and the violation must replay.
func checkSelfTest(x *explore.Explorer, out io.Writer) error {
	fmt.Fprintln(out, "self-test: global-safe-condition drain disabled; the checker must object")
	rep, err := x.Explore()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  states explored:    %d\n", rep.States)
	fmt.Fprintf(out, "  distinct schedules: %d\n", rep.Schedules)
	if len(rep.Violations) == 0 {
		return fmt.Errorf("self-test FAILED: mutation not detected — the safety checker has no teeth")
	}
	v := rep.Violations[0]
	rep2, err := x.Replay(v.Schedule)
	if err != nil {
		return err
	}
	if len(rep2.Violations) == 0 {
		return fmt.Errorf("self-test FAILED: schedule %v did not replay the violation", v.Schedule)
	}
	fmt.Fprintf(out, "  detected: %v\n", v)
	fmt.Fprintf(out, "self-test passed: violation found and replayed (safeadaptctl check -selftest -replay %s)\n",
		scheduleArg(v.Schedule))
	return nil
}

func checkReplay(x *explore.Explorer, arg string, out io.Writer) error {
	sched, err := parseSchedule(arg)
	if err != nil {
		return err
	}
	rep, err := x.Replay(sched)
	if err != nil {
		return err
	}
	trace, err := x.ReplayTrace(sched)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replay %v:\n", sched)
	for _, line := range trace {
		fmt.Fprintf(out, "  %s\n", line)
	}
	if len(rep.Violations) > 0 {
		for i, v := range rep.Violations {
			fmt.Fprintf(out, "violation %d: %v\n", i+1, v)
		}
		return fmt.Errorf("%d safety violation(s) found", len(rep.Violations))
	}
	fmt.Fprintln(out, "no safety violations")
	return nil
}

func parseSchedule(arg string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(arg, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad schedule element %q: want non-negative integers", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func scheduleArg(sched []int) string {
	if len(sched) == 0 {
		return "0"
	}
	parts := make([]string, len(sched))
	for i, n := range sched {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}
