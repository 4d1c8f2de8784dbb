package fleet

//safeadaptvet:allow-file fencegate -- the sim IS the wire: its mutations are virtual-clock and port bookkeeping for the simulated network, not protocol state; epoch fencing is enforced by the real manager, coordinators and agents running on top of it

import (
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/action"
	"repro/internal/agent"
	"repro/internal/fleetobs"
	"repro/internal/ftdc"
	"repro/internal/invariant"
	"repro/internal/journal"
	"repro/internal/manager"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/protocol"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// The fleet simulator: a deterministic discrete-event network under a
// REAL manager, REAL agents and REAL coordinators, on virtual time. It
// exists to measure the thing the hierarchy is for — wave latency versus
// fleet size — without needing 10k sockets or a wall clock. The network
// model charges every frame serialization time at both the sender's
// egress and the receiver's ingress (each endpoint is a serial port:
// frames queue behind each other), plus propagation latency and seeded
// jitter. Under that model a flat manager pays O(n) serialized frame
// costs per wave on its single egress; a hierarchical plane pays
// O(fan-out) at the root and parallelizes the rest across coordinators —
// which is exactly the effect the benchmark curves show.
//
// The adaptation itself is a synthetic 5-step plan (five component pairs
// with oneof invariants on one host process); every other agent in the
// fleet is conscripted into each step via the manager's reset-phase
// policy, so all n agents genuinely participate in every wave: reset,
// adapt-done, resume, with per-agent acks, epoch fencing and journaling
// all live (the manager runs with a real in-memory journal, epoch 1).

// SimConfig parameterizes one simulated fleet adaptation.
type SimConfig struct {
	// Agents is the fleet size.
	Agents int
	// Fanout enables the hierarchical plane with the given fan-out
	// factor; 0 runs flat (manager talks to every agent directly).
	Fanout int
	// Seed seeds the jitter PRNG. Same seed, same config → identical run.
	Seed int64

	// Network model. Zero values take the defaults (200µs latency, 40µs
	// jitter ceiling, 40µs per-frame overhead, 2µs per serialized
	// message).
	LinkLatency   time.Duration
	Jitter        time.Duration
	FrameOverhead time.Duration
	PerMsg        time.Duration

	// Rollup enables the observability plane: one fleetobs.Emitter per
	// agent publishing a synthetic-but-deterministic digest every
	// ReportEvery of virtual time, a fleetobs.ShardRollup on every
	// coordinator folding them, and root-side accounting of the report
	// frames and bytes that actually reach the manager.
	Rollup bool
	// ReportEvery is the virtual emission period. Defaults to 2ms,
	// raised as needed so report frames can't saturate the busiest
	// serial ingress (the manager's when flat, a leaf coordinator's in
	// a tree).
	ReportEvery time.Duration
	// CapturePath, when non-empty (requires Rollup), additionally
	// attaches a fleetobs.FleetState as the manager's wave observer and
	// writes its mirrored fleet series to an FTDC capture file on
	// virtual timestamps — one row per absorbed report and per wave
	// frontier transition.
	CapturePath string
}

// WaveSample is one measured wave: from the root sending the wave's
// first command to the root holding acknowledgements covering the whole
// fleet.
type WaveSample struct {
	Step    string        // "pathIndex.attempt"
	Wave    string        // "reset", "adapt", "resume"
	Latency time.Duration // virtual time
}

// SimResult summarizes one simulated adaptation.
type SimResult struct {
	Completed bool
	Steps     int
	Depth     int // coordinator levels (0 = flat)
	Coords    int
	// RootFrames counts frames the root manager's egress serialized;
	// RootRecv counts messages delivered to the root. The hierarchy's
	// point is shrinking both from O(n·steps) to O(fan-out·steps).
	RootFrames int
	RootRecv   int
	Samples    []WaveSample
	P50, P99   time.Duration
	Elapsed    time.Duration // virtual end-to-end adaptation time

	// Rollup accounting (Config.Rollup only). ReportFrames counts the
	// MsgMetricReport frames delivered to the root and ReportBytes their
	// marshaled sizes; ReportIntervals counts completed emission rounds.
	// ReportFrames/ReportIntervals is the root's report fan-in per
	// interval — the quantity the tree shrinks from O(n) to O(root
	// links).
	ReportFrames    int
	ReportBytes     int64
	ReportIntervals int
	// FleetReports counts reports absorbed by the FleetState observer
	// (CapturePath runs only).
	FleetReports int64
}

type simEvent struct {
	at    time.Time
	seq   int
	frame simnet.Frame
}

type eventHeap []simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)  { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)    { *h = append(*h, x.(simEvent)) }
func (h *eventHeap) Pop() any      { old := *h; n := len(old); ev := old[n-1]; *h = old[:n-1]; return ev }
func (h eventHeap) peek() simEvent { return h[0] }
func (h eventHeap) empty() bool    { return len(h) == 0 }

// sim is the simulator's cost policy over a simnet.Net: it implements
// simnet.World, charging each submitted frame its serialization, latency
// and jitter and delivering frames in virtual-time order.
type sim struct {
	cfg   SimConfig
	clock *simnet.ManualClock
	net   *simnet.Net
	seq   int
	queue eventHeap
	rng   *rand.Rand

	// Each endpoint is a serial port on the network: when its egress and
	// its ingress are next free (the zero time: never used).
	egressFree, ingressFree map[string]time.Time
	names                   []string // all agent names, sorted

	waveStart map[string]time.Time
	credited  map[string]map[string]bool
	sampled   map[string]bool
	samples   []WaveSample

	rootFrames int
	rootRecv   int

	// Observability plane (cfg.Rollup).
	emitters        []*fleetobs.Emitter // s.names order
	nextEmit        time.Time
	reportFrames    int
	reportBytes     int64
	reportIntervals int
	fleetState      *fleetobs.FleetState
	capW            *ftdc.Writer
	capNames        []string
	capVals         []int64
}

// emitRound closes one report interval: every agent emits its digest
// delta, in sorted name order, as ordinary simulated frames.
func (s *sim) emitRound() {
	s.reportIntervals++
	for _, em := range s.emitters {
		_ = em.EmitNow()
	}
}

// sampleCapture cuts one FTDC row of the fleet series at virtual now.
func (s *sim) sampleCapture() {
	if s.capW == nil {
		return
	}
	s.capNames, s.capVals = s.fleetState.Registry().AppendCaptureSample(s.capNames[:0], s.capVals[:0])
	_ = s.capW.WriteSample(s.clock.Now().UnixNano(), s.capNames, s.capVals)
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// Submit schedules one frame: it occupies the sender's egress for its
// serialized size, crosses the link (latency + jitter), then occupies the
// receiver's ingress.
func (s *sim) Submit(f simnet.Frame) {
	cost := s.cfg.FrameOverhead + time.Duration(f.Units)*s.cfg.PerMsg
	dep := maxTime(s.clock.Now(), s.egressFree[f.From])
	s.egressFree[f.From] = dep.Add(cost)
	jit := time.Duration(0)
	if s.cfg.Jitter > 0 {
		jit = time.Duration(s.rng.Int63n(int64(s.cfg.Jitter)))
	}
	arr := maxTime(dep.Add(cost+s.cfg.LinkLatency+jit), s.ingressFree[f.To]).Add(cost)
	s.ingressFree[f.To] = arr
	if f.From == protocol.ManagerName {
		s.rootFrames++
	}
	s.seq++
	heap.Push(&s.queue, simEvent{at: arr, seq: s.seq, frame: f})
}

// Admit vetoes nothing: it is where the root's commands are seen one by
// one, before a wave is packed into envelopes.
func (s *sim) Admit(port string, msg protocol.Message) bool {
	if port == protocol.ManagerName {
		s.markWaveStart(msg)
	}
	return true
}

// markWaveStart records the instant the root fires the first command of a
// wave. A reset command starts both the reset wave and the adapt barrier
// that follows it without another downward send.
func (s *sim) markWaveStart(msg protocol.Message) {
	//safeadaptvet:ignore-msg MsgRollback MsgResetDone MsgResetFailed MsgAdaptDone MsgAdaptFailed MsgResumeDone MsgRollbackDone MsgProbe MsgProbeAck MsgHello MsgHeartbeat MsgBatch MsgMetricReport -- wave-latency bookkeeping: only reset (which also opens the adapt barrier) and resume are sampled waves; rollback latency is not an experiment metric and replies never start a wave
	switch msg.Type {
	case protocol.MsgReset:
		s.startIfAbsent(waveKeyOf(msg.Step, "reset"))
		s.startIfAbsent(waveKeyOf(msg.Step, "adapt"))
	case protocol.MsgResume:
		s.startIfAbsent(waveKeyOf(msg.Step, "resume"))
	}
}

func (s *sim) startIfAbsent(key string) {
	if _, ok := s.waveStart[key]; !ok {
		s.waveStart[key] = s.clock.Now()
	}
}

func waveKeyOf(step protocol.Step, wave string) string {
	return fmt.Sprintf("%d.%d/%s", step.PathIndex, step.Attempt, wave)
}

// credit accounts one root-bound acknowledgement toward its wave's
// fleet-wide completion and samples the wave latency when the last agent
// is covered.
func (s *sim) credit(msg protocol.Message) {
	var wave string
	//safeadaptvet:ignore-msg MsgReset MsgResume MsgRollback MsgResetFailed MsgAdaptFailed MsgRollbackDone MsgProbe MsgProbeAck MsgHello MsgHeartbeat MsgBatch MsgMetricReport -- latency sampling credits the three measured ack waves against their start marks; rollback and failure paths are not timed experiments and commands never credit
	switch msg.Type {
	case protocol.MsgResetDone:
		wave = "reset"
	case protocol.MsgAdaptDone:
		wave = "adapt"
	case protocol.MsgResumeDone:
		wave = "resume"
	default:
		return
	}
	key := waveKeyOf(msg.Step, wave)
	if s.sampled[key] {
		return
	}
	set := s.credited[key]
	if set == nil {
		set = make(map[string]bool, len(s.names))
		s.credited[key] = set
	}
	if len(msg.Agents) > 0 {
		for _, a := range msg.Agents {
			set[a] = true
		}
	} else if msg.From != "" {
		set[msg.From] = true
	}
	if len(set) >= len(s.names) {
		s.sampled[key] = true
		if start, ok := s.waveStart[key]; ok {
			s.samples = append(s.samples, WaveSample{
				Step:    fmt.Sprintf("%d.%d", msg.Step.PathIndex, msg.Step.Attempt),
				Wave:    wave,
				Latency: s.clock.Now().Sub(start),
			})
		}
	}
}

// Recv is the manager's blocking receive and the event loop: it advances,
// on the manager's goroutine, until a root-bound message is due (returned)
// or the virtual deadline passes. Report emission rounds interleave with
// network events in strict virtual-time order.
func (s *sim) Recv(ctx context.Context, deadline time.Time) (protocol.Message, transport.RecvStatus) {
	if ctx.Err() != nil {
		return protocol.Message{}, transport.RecvAborted
	}
	for {
		if s.cfg.Rollup {
			// Fire every emission round due before the next network event
			// (or the deadline, when the queue is quiet).
			for !s.nextEmit.After(deadline) &&
				(s.queue.empty() || !s.nextEmit.After(s.queue.peek().at)) {
				s.clock.AdvanceTo(s.nextEmit)
				s.emitRound()
				s.nextEmit = s.nextEmit.Add(s.cfg.ReportEvery)
			}
		}
		if s.queue.empty() || s.queue.peek().at.After(deadline) {
			s.clock.AdvanceTo(deadline)
			return protocol.Message{}, transport.RecvTimeout
		}
		ev := heap.Pop(&s.queue).(simEvent)
		s.clock.AdvanceTo(ev.at)
		msg, atRoot := s.net.Deliver(ev.frame)
		if !atRoot {
			continue
		}
		s.rootRecv++
		if msg.Type == protocol.MsgMetricReport {
			// Observability-plane traffic: account for it at the root
			// boundary and absorb it into the fleet model without ever
			// surfacing it at the manager's protocol Recv.
			s.reportFrames++
			if b, err := json.Marshal(msg); err == nil {
				s.reportBytes += int64(len(b))
			}
			if s.fleetState != nil {
				s.fleetState.Absorb(msg)
				s.sampleCapture()
			}
			continue
		}
		s.credit(msg)
		return msg, transport.RecvOK
	}
}

// --- scenario ---------------------------------------------------------

// DemoScenario builds the synthetic 5-step adaptation the simulator and
// the rig test both run: five component pairs (Ai, Bi) on one host
// process, a oneof invariant per pair, and five replace actions — a 5-step
// MAP from all-A to all-B. The manager's reset-phase policy then conscripts
// every agent in the fleet into every step, so each wave genuinely spans
// the whole tree.
func DemoScenario() (*model.Registry, *planner.Planner, model.Config, model.Config, error) {
	const host = "node-00000"
	var comps []model.Component
	var invs []invariant.Invariant
	var acts []action.Action
	var src, dst []string
	for i := 0; i < 5; i++ {
		a, b := fmt.Sprintf("A%d", i), fmt.Sprintf("B%d", i)
		comps = append(comps,
			model.Component{Name: a, Process: host},
			model.Component{Name: b, Process: host})
		inv, err := invariant.NewStructural(
			fmt.Sprintf("pair%d", i), fmt.Sprintf("oneof(%s, %s)", a, b))
		if err != nil {
			return nil, nil, 0, 0, err
		}
		invs = append(invs, inv)
		act, err := action.New(fmt.Sprintf("S%d", i), fmt.Sprintf("%s -> %s", a, b),
			10*time.Millisecond, fmt.Sprintf("replace %s with %s", a, b))
		if err != nil {
			return nil, nil, 0, 0, err
		}
		acts = append(acts, act)
		src, dst = append(src, a), append(dst, b)
	}
	reg, err := model.NewRegistry(comps...)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	set, err := invariant.NewSet(reg, invs...)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	pl, err := planner.New(set, acts)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	source, err := reg.ConfigOf(src...)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	target, err := reg.ConfigOf(dst...)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return reg, pl, source, target, nil
}

// DemoProcessOf returns the component→process resolver for DemoScenario,
// in the shape agent.Options.ProcessOf expects (unknown components map to
// "").
func DemoProcessOf(reg *model.Registry) func(string) string {
	return func(component string) string {
		p, _ := reg.ProcessOf(component)
		return p
	}
}

// RunSim executes one full adaptation over the simulated fleet and
// returns the measured wave-latency samples.
func RunSim(cfg SimConfig) (*SimResult, error) {
	if cfg.Agents <= 0 {
		return nil, fmt.Errorf("fleet sim: need at least one agent")
	}
	if cfg.LinkLatency <= 0 {
		cfg.LinkLatency = 200 * time.Microsecond
	}
	if cfg.Jitter < 0 {
		cfg.Jitter = 0
	} else if cfg.Jitter == 0 {
		cfg.Jitter = 40 * time.Microsecond
	}
	if cfg.FrameOverhead <= 0 {
		cfg.FrameOverhead = 40 * time.Microsecond
	}
	if cfg.PerMsg <= 0 {
		cfg.PerMsg = 2 * time.Microsecond
	}
	if cfg.ReportEvery <= 0 {
		// Default to 2ms, but never oversubscribe the busiest serial
		// ingress with report frames: the manager receives one frame per
		// agent per interval in a flat plane, a leaf coordinator one per
		// child in a tree. An interval below that port's drain time makes
		// the backlog diverge and head-of-line blocks the protocol acks
		// behind telemetry — the sim would never converge.
		width := cfg.Agents
		if cfg.Fanout > 0 {
			width = cfg.Fanout
		}
		cfg.ReportEvery = 2 * time.Millisecond
		if floor := time.Duration(width) * (cfg.FrameOverhead + cfg.PerMsg) * 2; floor > cfg.ReportEvery {
			cfg.ReportEvery = floor
		}
	}
	if cfg.CapturePath != "" && !cfg.Rollup {
		return nil, fmt.Errorf("fleet sim: CapturePath requires Rollup")
	}

	s := &sim{
		cfg:         cfg,
		clock:       simnet.NewManualClock(time.Unix(0, 0)),
		rng:         rand.New(rand.NewSource(cfg.Seed + 1)),
		egressFree:  make(map[string]time.Time),
		ingressFree: make(map[string]time.Time),
		waveStart:   make(map[string]time.Time),
		credited:    make(map[string]map[string]bool),
		sampled:     make(map[string]bool),
	}
	for i := 0; i < cfg.Agents; i++ {
		s.names = append(s.names, fmt.Sprintf("node-%05d", i))
	}
	sort.Strings(s.names)

	reg, pl, source, target, err := DemoScenario()
	if err != nil {
		return nil, err
	}
	res := &SimResult{}
	var topo *Topology // nil when flat
	// Flat, the manager genuinely needs an O(n) stash: all n agents send
	// "adapt done" on the heels of "reset done", while it is still
	// collecting the reset wave.
	maxStash := cfg.Agents + 64
	if cfg.Fanout > 0 {
		if topo, err = NewTopology(s.names, cfg.Fanout); err != nil {
			return nil, err
		}
		s.net = simnet.New(s, topo)
		res.Depth = topo.Depth()
		res.Coords = len(topo.Coords)
		for _, c := range topo.Coords {
			var ru Rollup
			if cfg.Rollup {
				ru = fleetobs.NewShardRollup(fleetobs.RollupOptions{
					Name:     c.Name,
					Parent:   c.Parent,
					Children: c.Children,
				})
			}
			coord, cerr := NewCoordinator(Options{
				Name:   c.Name,
				Parent: c.Parent,
				Up:     s.net.Up(c.Name),
				// Per-agent frames at a leaf, re-batched envelopes per child
				// coordinator above.
				Down: simnet.BatchPort{Port: s.net.Down(c.Name)},
				// Track every concurrently open wave of the shard.
				MaxBuckets: 3 * (len(c.Covers) + 2),
				Rollup:     ru,
			})
			if cerr != nil {
				return nil, cerr
			}
			s.net.AttachRelay(c.Name, coord)
		}
		// The root only ever sees O(fan-out) aggregated acks in flight,
		// so the default out-of-order stash would do; size it to the
		// root links for clarity.
		maxStash = len(topo.Roots) + 64
	} else {
		s.net = simnet.New(s, nil)
	}
	// A wave leaves the root of a tree as one batched frame per top-level
	// coordinator; flat, every link ends at its addressee, so each command
	// stays a frame of its own on the manager's single egress — the O(n)
	// serial cost that is the baseline being measured.
	root := simnet.BatchPort{Port: s.net.Down(protocol.ManagerName)}

	processOf := DemoProcessOf(reg)
	agents := make(map[string]*agent.Agent, len(s.names))
	for _, name := range s.names {
		ag, aerr := agent.New(name, s.net.Up(name), NopProcess{}, agent.Options{
			ResetTimeout: time.Hour, // virtual-time run; never fires
			ProcessOf:    processOf,
			Clock:        s.clock,
		})
		if aerr != nil {
			return nil, aerr
		}
		agents[name] = ag
		s.net.Attach(name, ag)
	}

	var observer manager.WaveObserver
	if cfg.Rollup {
		for i, name := range s.names {
			src := &synthSource{idx: i, lat: &telemetry.Sketch{}}
			uplink := protocol.ManagerName
			if topo != nil {
				uplink, _ = topo.Uplink(name)
			}
			em, eerr := fleetobs.NewEmitter(s.net.Up(name), fleetobs.EmitterOptions{
				Node:          name,
				To:            uplink,
				Epoch:         agents[name].Epoch,
				Source:        src.digest,
				LatencyMetric: "agent.ack_ns",
			})
			if eerr != nil {
				return nil, eerr
			}
			s.emitters = append(s.emitters, em)
		}
		s.nextEmit = s.clock.Now().Add(cfg.ReportEvery)

		if cfg.CapturePath != "" {
			// Shards at the granularity the root actually sees: its direct
			// children (top coordinators, or the agents themselves when flat).
			shards := make(map[string][]string)
			if topo != nil {
				for _, r := range topo.Roots {
					c, _ := topo.Coord(r)
					shards[r] = c.Covers
				}
			} else {
				for _, name := range s.names {
					shards[name] = []string{name}
				}
			}
			fs, ferr := fleetobs.NewFleetState(fleetobs.StateOptions{
				Clock:          s.clock,
				Shards:         shards,
				ReportInterval: cfg.ReportEvery,
				OnWave:         s.sampleCapture,
			})
			if ferr != nil {
				return nil, ferr
			}
			s.fleetState = fs
			observer = fs
			w, werr := ftdc.NewWriter(cfg.CapturePath, ftdc.WriterOptions{})
			if werr != nil {
				return nil, werr
			}
			s.capW = w
			defer func() { _ = w.Close() }()
		}
	}

	allPhases := [][]string{s.names}
	mgr, merr := manager.New(root, pl, manager.Options{
		StepTimeout: 30 * time.Second, // virtual
		Clock:       s.clock,
		Journal:     journal.NewMem(),
		ResetPhases: func(action.Action, []string) [][]string { return allPhases },
		MaxStash:    maxStash,
		Observer:    observer,
	})
	if merr != nil {
		return nil, merr
	}

	result, rerr := mgr.Execute(source, target)
	if rerr != nil {
		return nil, fmt.Errorf("fleet sim (%d agents, fanout %d): %w", cfg.Agents, cfg.Fanout, rerr)
	}
	if cfg.Rollup {
		// Drain the reports still in flight when the adaptation finished,
		// so per-interval accounting covers every completed emission round.
		// Emission stops first, or the drain would never converge.
		s.nextEmit = s.clock.Now().Add(365 * 24 * time.Hour)
		for !s.queue.empty() {
			s.Recv(context.Background(), s.queue.peek().at)
		}
		if s.fleetState != nil {
			res.FleetReports = s.fleetState.Registry().Snapshot().Counters["fleetobs.reports"]
			s.sampleCapture()
			if s.capW != nil {
				if cerr := s.capW.Close(); cerr != nil {
					return nil, cerr
				}
			}
		}
	}
	res.Completed = result.Completed
	res.Steps = len(result.Steps)
	res.RootFrames = s.rootFrames
	res.RootRecv = s.rootRecv
	res.ReportFrames = s.reportFrames
	res.ReportBytes = s.reportBytes
	res.ReportIntervals = s.reportIntervals
	res.Samples = s.samples
	res.Elapsed = s.clock.Now().Sub(time.Unix(0, 0))
	res.P50, res.P99 = percentiles(s.samples)
	return res, nil
}

// synthSource produces one simulated agent's cumulative digest. The
// values are synthetic but deterministic in (agent index, emission
// round): a per-agent telemetry Registry would be faithful, but its
// eagerly allocated span/event rings are dead weight at 4096 agents, and
// the rollup plane only needs a mergeable digest stream to fold.
type synthSource struct {
	idx    int
	rounds int64
	lat    *telemetry.Sketch
}

func (ss *synthSource) digest() telemetry.Digest {
	ss.rounds++
	// Stable, index-skewed ack latency so the fleet's top-k slowest list
	// is deterministic and non-degenerate.
	ss.lat.Observe(time.Duration(ss.idx%97+1) * 50 * time.Microsecond)
	return telemetry.Digest{
		Nodes:    1,
		Counters: map[string]int64{"agent.app_frames": ss.rounds * int64(ss.idx%7+1)},
		Gauges:   map[string]int64{"agent.queue_depth": int64(ss.idx%5) + 1},
		Sketches: map[string]*telemetry.Sketch{"agent.ack_ns": ss.lat.Clone()},
	}
}

func percentiles(samples []WaveSample) (p50, p99 time.Duration) {
	if len(samples) == 0 {
		return 0, 0
	}
	lat := make([]time.Duration, len(samples))
	for i, w := range samples {
		lat[i] = w.Latency
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := func(p float64) time.Duration {
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	return idx(0.50), idx(0.99)
}

// NopProcess is a no-op agent LocalProcess for fleets whose agents host
// no application: the simulator and the rig test both measure
// coordination latency, not application work.
type NopProcess struct{}

func (NopProcess) PreAction(protocol.Step, []action.Op) error      { return nil }
func (NopProcess) Reset(context.Context, protocol.Step) error      { return nil }
func (NopProcess) InAction(protocol.Step, []action.Op) error       { return nil }
func (NopProcess) Resume(protocol.Step) error                      { return nil }
func (NopProcess) PostAction(protocol.Step, []action.Op) error     { return nil }
func (NopProcess) Rollback(protocol.Step, []action.Op, bool) error { return nil }
