// Command bench is the repository's end-to-end benchmark: four workloads
// that load the data plane (through a DES-64 → DES-128 swap and without
// one) and the control plane (in its production shape and in memory), with
// end-to-end metrics measured untraced and per-layer metrics from a traced
// run. See README.md in this directory and BENCHMARK.json at the root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is what a workload is set up with.
type config struct {
	seed    int64
	window  time.Duration // how long measure applies load
	t       *tracer       // nil on end-to-end runs
	scratch string        // a directory in the checkout for files the run writes and removes
	// journals is where adapt_prod keeps its journal files: RAM-backed
	// when journalsInRAM, else the scratch directory.
	journals      string
	journalsInRAM bool
}

// workload is one of the four named load shapes.
type workload interface {
	// setup builds the system under test, pre-generates its inputs from
	// the seed and warms it up.
	setup(c config) error
	// measure applies the load for the window.
	measure() error
	// finish verifies the outputs and computes what the reports need.
	finish()
	// close releases what is still held; it follows setup on every path.
	close()
	// verdict counts operations and names every failed correctness check.
	verdict() (attempted, failed int, problems []string)
	// primary is the median latency of the workload's operation in µs.
	primary() float64
	// endToEnd returns the metrics by the names the issue gave them, and
	// the distribution behind every timing.
	endToEnd() (map[string]metric, map[string]summary)
	// layers returns the per-layer metrics of a traced run.
	layers() map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloads in the order they are run and filled in from.
var workloadNames = []string{"stream_steady", "stream_swap", "adapt_prod", "adapt_mem"}

func newWorkload(name string) workload {
	switch name {
	case "stream_steady":
		return &streamWorkload{shape: steadyShape}
	case "stream_swap":
		return &streamWorkload{shape: swapShape}
	case "adapt_prod":
		return &adaptWorkload{prod: true}
	case "adapt_mem":
		return &adaptWorkload{}
	}
	return nil
}

// slots maps the metric names of BENCHMARK.json's end_to_end list — which
// every workload must report — to the workload's own metric of that
// meaning. op is the workload's operation as its user sees it (a frame due
// to play, an adaptation asked for); disruption is how long the adapted
// application stood still (the longest gap between frame completions in
// 150 frames, or the time some process sat blocked per adaptation).
var slots = map[string]map[string]string{
	"stream_steady": {
		"op_p50_us": "frame_delay_p50_us", "op_p90_us": "frame_delay_p90_us",
		"cpu_us_per_op": "cpu_us_per_frame", "allocs_per_op": "allocs_per_frame",
		"disruption_p50_us": "freeze_p50_us", "disruption_p90_us": "freeze_p90_us",
	},
	"stream_swap": {
		"op_p50_us": "swap_frame_delay_p50_ms", "op_p90_us": "swap_frame_delay_p90_ms",
		"cpu_us_per_op": "cpu_us_per_frame", "allocs_per_op": "allocs_per_frame",
		"disruption_p50_us": "swap_blackout_p50_ms", "disruption_p90_us": "swap_blackout_p90_ms",
	},
	"adapt_prod": {
		"op_p50_us": "adapt_p50_ms", "op_p90_us": "adapt_p90_ms",
		"cpu_us_per_op": "cpu_us_per_adapt", "allocs_per_op": "allocs_per_adapt",
		"disruption_p50_us": "blocked_p50_us", "disruption_p90_us": "blocked_p90_us",
	},
	"adapt_mem": {
		"op_p50_us": "adapt_p50_us", "op_p90_us": "adapt_p90_us",
		"cpu_us_per_op": "cpu_us_per_adapt", "allocs_per_op": "allocs_per_adapt",
		"disruption_p50_us": "blocked_p50_us", "disruption_p90_us": "blocked_p90_us",
	},
}

// slotMetric converts a workload's own metric to its slot's unit.
func slotMetric(slot string, m metric) metric {
	if strings.HasSuffix(slot, "_us") && m.Unit == "ms" {
		return metric{m.Value * 1e3, "us"}
	}
	return m
}

// result is the line the benchmark contract asks for.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run found; -report collects them for -compare.
type report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	// Status is "resolved", or "unresolved: <why>" when the run's numbers
	// should not be compared (the generator ran late, more threads than
	// processors).
	Status   string             `json:"status"`
	Problems []string           `json:"problems,omitempty"`
	Result   result             `json:"result"`
	Detail   map[string]metric  `json:"detail,omitempty"`
	Timings  map[string]summary `json:"timings,omitempty"`
}

// An end-to-end run sets its workload up at least minSetupRounds times,
// and a cheap set-up more often — until a second has gone into it — so that
// a 50 ms set-up is not judged by three samples. setup_s is the median;
// the last instance is the one measured.
const minSetupRounds, maxSetupRounds = 3, 15

// singleThreaded runs the adapt_* workloads on one processor and returns
// the undo. An adaptation is a chain of hand-offs between the manager's and
// the agents' goroutines with nothing to run in parallel; on two processors
// each hand-off may wake a parked thread on the other one, and how long the
// hypervisor takes to wake a halted vCPU moved the median by 25 % between
// identical runs, in phases lasting minutes. On one processor the numbers
// are the code's own cost and repeat within a few per cent. The stream_*
// workloads do run their stages in parallel and keep every processor.
func singleThreaded(name string) (undo func()) {
	if !strings.HasPrefix(name, "adapt_") {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

func runEndToEnd(name string, c config, minRounds int) (*report, error) {
	defer singleThreaded(name)()
	var w workload
	var setups []float64
	began := time.Now()
	for i := 0; i < minRounds || (i < maxSetupRounds && time.Since(began) < time.Second); i++ {
		if w != nil {
			w.close()
		}
		w = newWorkload(name)
		start := time.Now()
		err := w.setup(c)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer w.close()
	if err := w.measure(); err != nil {
		return nil, err
	}
	w.finish()

	detail, timings := w.endToEnd()
	detail["setup_s"] = metric{median(setups), "s"}
	rep := &report{Workload: name, Detail: detail, Timings: timings, Status: status(timings)}
	rep.Result.Attempted, rep.Result.Failed, rep.Problems = w.verdict()
	rep.Result.Metrics = map[string]metric{"setup_s": detail["setup_s"]}
	for slot, own := range slots[name] {
		rep.Result.Metrics[slot] = slotMetric(slot, detail[own])
	}
	return rep, nil
}

// Shares of the window a traced run gives to the untraced baseline, to
// the named workload traced, and to each of the other three workloads,
// which fill in the layers the named one does not exercise.
const (
	baselineShare  = 0.20
	tracedShare    = 0.35
	companionShare = 0.10
)

func runTraced(name string, c config, outDir string) (*report, error) {
	one := func(name string, share float64, t *tracer) (workload, error) {
		defer singleThreaded(name)()
		cc := c
		cc.window = time.Duration(float64(c.window) * share)
		cc.t = t
		w := newWorkload(name)
		if err := w.setup(cc); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		if err := w.measure(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		w.finish()
		w.close()
		return w, nil
	}

	base, err := one(name, baselineShare, nil)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	w, err := one(name, tracedShare, t)
	if err != nil {
		return nil, err
	}
	if err := t.write(filepath.Join(outDir, "trace-"+name+".json")); err != nil {
		return nil, err
	}
	layers := w.layers()
	layers["harness.trace_overhead_pct"] = metric{(w.primary() - base.primary()) / base.primary() * 100, "%"}

	rep := &report{Workload: name, Trace: true, Status: "resolved"}
	rep.Result.Attempted, rep.Result.Failed, rep.Problems = w.verdict()
	for _, other := range workloadNames {
		if other == name {
			continue
		}
		cw, err := one(other, companionShare, newTracer())
		if err != nil {
			return nil, err
		}
		if _, _, problems := cw.verdict(); len(problems) > 0 {
			rep.Problems = append(rep.Problems, other+": "+problems[0])
		}
		for k, v := range cw.layers() {
			if _, ok := layers[k]; !ok {
				layers[k] = v
			}
		}
	}
	probes, err := runProbes(c)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		layers[k] = v
	}
	perPacket := layers["metasocket.send_ns_per_pkt_256"].Value + layers["netsim.send_ns_per_datagram"].Value
	layers["video.packetize_self_us"] = metric{layers["video.sendframe_us"].Value - fragsPerFrame*perPacket/1e3, "us"}
	rep.Detail, rep.Result.Metrics = layers, layers
	return rep, nil
}

// tmpfsMagic is statfs's f_type for tmpfs.
const tmpfsMagic = 0x01021994

// ramDir returns a RAM-backed directory for adapt_prod's journals. Device
// flush time on a shared disk moves by half within the hour, and with 36
// fsyncs per adaptation it would swamp everything else the workload
// measures; the disk's cost enters through the exact count
// fsyncs_per_adapt and the journal.fsync_disk_us probe instead. The
// scratch directory itself serves when it is on tmpfs; otherwise
// /dev/shm, when writable; otherwise the scratch directory after all, and
// the run is marked unresolved.
func ramDir(scratch string) (dir string, inRAM bool) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(scratch, &st); err == nil && st.Type == tmpfsMagic {
		return scratch, true
	}
	if dir, err := os.MkdirTemp("/dev/shm", "safeadapt-bench-"); err == nil {
		return dir, true
	}
	return scratch, false
}

// status marks a run whose load did not arrive as specified.
func status(timings map[string]summary) string {
	if late, ok := timings["gen_late_us"]; ok && late.P50 > 1000 {
		return fmt.Sprintf("unresolved: generator ran %.0f us late at the median", late.P50)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return fmt.Sprintf("unresolved: GOMAXPROCS %d exceeds %d processors", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	return "resolved"
}

// printTable writes the human-readable report to stderr.
func printTable(rep *report) {
	mode := "end to end"
	if rep.Trace {
		mode = "per layer (traced)"
	}
	fmt.Fprintf(os.Stderr, "\n%s  %s  seed %d  %d s  %s\n", rep.Workload, mode, rep.Seed, rep.Seconds, rep.Status)
	fmt.Fprintf(os.Stderr, "  attempted %d  failed %d  correct %v\n", rep.Result.Attempted, rep.Result.Failed, rep.Result.Correct)
	for _, p := range rep.Problems {
		fmt.Fprintf(os.Stderr, "  FAILED CHECK: %s\n", p)
	}
	own := make(map[string]string)
	for slot, name := range slots[rep.Workload] {
		own[name] = slot
	}
	for _, name := range sortedKeys(rep.Detail) {
		m := rep.Detail[name]
		line := fmt.Sprintf("  %-38s %14.4f %-6s", name, m.Value, m.Unit)
		if slot, ok := own[name]; ok && !rep.Trace {
			line += "  = " + slot
		}
		fmt.Fprintln(os.Stderr, line)
	}
	for _, name := range sortedKeys(rep.Timings) {
		s := rep.Timings[name]
		fmt.Fprintf(os.Stderr, "  %-24s p50 %10.1f  p90 %10.1f  p99 %10.1f  max %10.1f  n %d\n",
			name, s.P50, s.P90, s.P99, s.Max, s.N)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default: all four)")
		seed    = flag.Int64("seed", 1, "seed for netsim, frame contents and swap trigger offsets")
		seconds = flag.Int("seconds", 20, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
		runs    = flag.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...; -compare takes their medians")
		out     = flag.String("report", "", "also write every run's full report to this file, for -compare")
		compare = flag.Bool("compare", false, "compare two -report files given as arguments; exit 1 on a regression")
		outDir  = flag.String("out", "bench/out", "directory for trace files and the run's scratch files")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareReports(flag.Arg(0), flag.Arg(1)))
	}
	names := workloadNames
	if *name != "" {
		if newWorkload(*name) == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		names = []string{*name}
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	}

	ok := true
	var reports []*report
	for i := 0; i < len(names)**runs; i++ {
		n := names[i / *runs]
		rep, err := run(n, *seed+int64(i%*runs), *seconds, *trace != 0, *outDir, minSetupRounds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
			os.Exit(1)
		}
		printTable(rep)
		line, err := json.Marshal(rep.Result)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && rep.Result.Correct
		reports = append(reports, rep)
	}
	if *out != "" {
		if err := writeReports(*out, *outDir, reports); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, outDir string, setupRounds int) (*report, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	c := config{seed: seed, window: time.Duration(seconds) * time.Second, scratch: scratch}
	c.journals, c.journalsInRAM = ramDir(scratch)
	defer os.RemoveAll(c.journals)
	var rep *report
	if traced {
		rep, err = runTraced(name, c, outDir)
	} else {
		rep, err = runEndToEnd(name, c, setupRounds)
	}
	if err != nil {
		return nil, err
	}
	rep.Seed, rep.Seconds = seed, seconds
	if name == "adapt_prod" && !c.journalsInRAM && rep.Status == "resolved" {
		rep.Status = "unresolved: journals are on a disk filesystem, whose flush time moves from run to run"
	}
	rep.Result.Correct = len(rep.Problems) == 0 && rep.Result.Failed == 0
	return rep, nil
}
