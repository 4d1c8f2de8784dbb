package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// bound is how far a workload's own end-to-end metric may worsen, as a
// share of the baseline, before -compare calls it a regression. All of
// them are better lower; a bound of 0 means the values must not rise.
// Metrics absent here (setup aside) are reported without a verdict.
var bounds = map[string]float64{
	"setup_s": 0.15,

	"cpu_us_per_frame":   0.08,
	"allocs_per_frame":   0.01,
	"frame_delay_p50_us": 0.10,
	"frames_lost":        0,
	"frames_corrupt":     0,

	"swap_blackout_p50_ms":     0.05,
	"swap_blackout_p90_ms":     0.08,
	"swap_latency_p50_ms":      0.08,
	"swap_frame_delay_p50_ms":  0.10,
	"swap_frame_delay_p90_ms":  0.10,
	"quiet_frame_delay_p50_ms": 0.08,

	"adapt_p50_ms":      0.10,
	"adapt_p90_ms":      0.10,
	"allocs_per_adapt":  0.01,
	"fsyncs_per_adapt":  0,
	"recover_replay_ms": 0.10,

	"adapt_p50_us":          0.10,
	"adapt_live_p50_us":     0.10,
	"allocs_live_per_adapt": 0.01,
}

// environment is recorded with every report file: numbers from different
// hosts are not comparable.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	// JournalFS is the filesystem type (statfs magic) under the directory
	// adapt_prod keeps its journals in.
	JournalFS string `json:"journal_fs"`
}

type reportFile struct {
	Env  environment `json:"env"`
	Runs []*report   `json:"runs"`
}

func describeEnvironment(scratch string) environment {
	dir, _ := ramDir(scratch)
	if dir != scratch {
		defer os.Remove(dir)
	}
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		JournalFS:  "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
				env.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil {
		env.JournalFS = fmt.Sprintf("0x%x", st.Type)
	}
	return env
}

func writeReports(path, dir string, runs []*report) error {
	body, err := json.MarshalIndent(reportFile{Env: describeEnvironment(dir), Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

func readReports(path string) (*reportFile, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f reportFile
	if err := json.Unmarshal(body, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareReports prints, for every (workload, end-to-end metric) the two
// files share, the change from a to b against the metric's bound. It
// returns the process exit code: 1 if any bound is breached, or if b
// failed a larger share of its operations than a.
func compareReports(pathA, pathB string) int {
	a, err := readReports(pathA)
	if err == nil {
		var b *reportFile
		if b, err = readReports(pathB); err == nil {
			return compareRuns(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// endToEndRuns groups a file's end-to-end runs by workload.
func endToEndRuns(f *reportFile) map[string][]*report {
	out := make(map[string][]*report)
	for _, r := range f.Runs {
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out
}

// medianDetail returns the median of the named metric over the runs that
// report it.
func medianDetail(runs []*report, name string) (metric, bool) {
	var vals []float64
	var unit string
	for _, r := range runs {
		if m, ok := r.Detail[name]; ok {
			vals = append(vals, m.Value)
			unit = m.Unit
		}
	}
	return metric{median(vals), unit}, len(vals) > 0
}

// failedShare returns the share of operations that failed over the runs.
func failedShare(runs []*report) (failed, attempted int, share float64) {
	for _, r := range runs {
		failed += r.Result.Failed
		attempted += r.Result.Attempted
	}
	return failed, attempted, float64(failed) / float64(max(attempted, 1))
}

func compareRuns(a, b *reportFile) int {
	if a.Env.CPUModel != b.Env.CPUModel || a.Env.NumCPU != b.Env.NumCPU || a.Env.JournalFS != b.Env.JournalFS {
		fmt.Printf("note: environments differ (%+v vs %+v)\n", a.Env, b.Env)
	}
	runsA, runsB := endToEndRuns(a), endToEndRuns(b)
	code := 0
	for _, workload := range workloadNames {
		ra, rb := runsA[workload], runsB[workload]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fmt.Printf("%s (median of %d runs -> median of %d)\n", workload, len(ra), len(rb))
		for _, r := range append(append([]*report(nil), ra...), rb...) {
			if r.Status != "resolved" {
				fmt.Printf("  seed %d is %s\n", r.Seed, r.Status)
			}
		}
		failedA, attemptedA, shareA := failedShare(ra)
		failedB, attemptedB, shareB := failedShare(rb)
		if shareB > shareA {
			fmt.Printf("  BREACH failed operations rose from %d/%d to %d/%d\n", failedA, attemptedA, failedB, attemptedB)
			code = 1
		}
		for _, name := range sortedKeys(rb[0].Detail) {
			va, ok := medianDetail(ra, name)
			if !ok {
				continue
			}
			vb, _ := medianDetail(rb, name)
			bound, gated := bounds[name]
			verdict := "not gated"
			if gated {
				verdict = fmt.Sprintf("within %.0f%%", bound*100)
				if vb.Value > va.Value*(1+bound) {
					verdict = fmt.Sprintf("BREACH of %.0f%%", bound*100)
					code = 1
				}
			}
			change := 0.0
			if va.Value != 0 {
				change = (vb.Value - va.Value) / va.Value * 100
			}
			fmt.Printf("  %-28s %14.4f -> %14.4f %-6s %+7.2f%%  %s\n", name, va.Value, vb.Value, vb.Unit, change, verdict)
		}
	}
	return code
}
