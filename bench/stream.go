package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/metasocket"
	"repro/internal/netsim"
	"repro/internal/paper"
	"repro/internal/video"
)

const (
	frameBody     = 2048 // bytes; with the 8-byte checksum, 9 fragments of 256
	fragsPerFrame = 9
	payloadPool   = 1024 // distinct pre-generated frame payloads
	clients       = 2
)

// makePayloads pre-generates the frame payloads a run cycles through, so
// the generator's cost inside the measured window is one slice header per
// frame. The seed picks which frames.
func makePayloads(seed int64) [][]byte {
	base := uint32(uint64(seed) * 2654435761)
	out := make([][]byte, payloadPool)
	for i := range out {
		out[i] = video.GenerateFrame(base+uint32(i), frameBody).Payload
	}
	return out
}

// completionClock timestamps the moment a frame's last fragment has been
// delivered on every client. Its observe method is installed as the
// delivery observer of each client's receive socket, so it runs on their
// goroutines; everything else reads it after the stream has drained.
type completionClock struct {
	epoch     time.Time
	remaining []atomic.Int32
	done      []atomic.Int64 // ns since epoch; 0 while incomplete
}

func newCompletionClock(frames int) *completionClock {
	c := &completionClock{
		epoch:     time.Now(),
		remaining: make([]atomic.Int32, frames),
		done:      make([]atomic.Int64, frames),
	}
	for i := range c.remaining {
		c.remaining[i].Store(fragsPerFrame * clients)
	}
	return c
}

func (c *completionClock) observe(p metasocket.Packet) {
	if int(p.Frame) < len(c.remaining) && c.remaining[p.Frame].Add(-1) == 0 {
		c.done[p.Frame].Store(int64(time.Since(c.epoch)))
	}
}

// completedAt returns when frame id completed, and whether it did.
func (c *completionClock) completedAt(id int) (time.Duration, bool) {
	ns := c.done[id].Load()
	return time.Duration(ns), ns != 0
}

// packetProbe is the traced runs' per-packet instrumentation: transmit
// time by sequence number on the send socket, arrival and delivery on each
// client. Each client's fields are touched only by its socket goroutine.
type packetProbe struct {
	epoch  time.Time
	sentAt []atomic.Int64 // by packet sequence number
	client [clients]struct {
		latency  time.Duration
		arrived  int64
		transit  time.Duration // Σ (arrival − transmit − link latency)
		chain    time.Duration // Σ (delivery − arrival)
		packets  int64
		_padding [64]byte
	}
}

func (p *packetProbe) install(sys *video.System, clock *completionClock) {
	sys.Server.Socket().SetObserver(func(pkt metasocket.Packet) {
		if int(pkt.Seq) < len(p.sentAt) {
			p.sentAt[pkt.Seq].Store(int64(time.Since(p.epoch)))
		}
	})
	for i, c := range []*video.Client{sys.Handheld, sys.Laptop} {
		st := &p.client[i]
		c.Socket().SetArrivalObserver(func(pkt metasocket.Packet) {
			st.arrived = int64(time.Since(p.epoch))
			if int(pkt.Seq) < len(p.sentAt) {
				st.transit += time.Duration(st.arrived-p.sentAt[pkt.Seq].Load()) - st.latency
			}
		})
		c.Socket().SetDeliveryObserver(func(pkt metasocket.Packet) {
			st.chain += time.Duration(int64(time.Since(p.epoch)) - st.arrived)
			st.packets++
			clock.observe(pkt)
		})
	}
}

// stream is one running video system with the benchmark's observers on it.
type stream struct {
	sys      *video.System
	clock    *completionClock
	probe    *packetProbe // traced runs only
	interval time.Duration
	payloads [][]byte
	sent     int

	// Per frame, by id.
	late     []time.Duration // generator lateness: sent − due
	sendTook []time.Duration // SendFrame wall
	due      []time.Duration // since clock.epoch
}

func newStream(seed int64, handheld, laptop time.Duration, fps, frames int, payloads [][]byte, traced bool) (*stream, error) {
	sys, err := video.NewSystem(video.SystemOptions{
		Seed:     seed,
		Handheld: netsim.LinkProfile{Latency: handheld},
		Laptop:   netsim.LinkProfile{Latency: laptop},
	})
	if err != nil {
		return nil, err
	}
	s := &stream{
		sys:      sys,
		clock:    newCompletionClock(frames),
		interval: time.Second / time.Duration(fps),
		payloads: payloads,
		late:     make([]time.Duration, frames),
		sendTook: make([]time.Duration, frames),
		due:      make([]time.Duration, frames),
	}
	if traced {
		s.probe = &packetProbe{epoch: s.clock.epoch, sentAt: make([]atomic.Int64, frames*fragsPerFrame+1)}
		s.probe.client[0].latency, s.probe.client[1].latency = handheld, laptop
		s.probe.install(sys, s.clock)
	} else {
		sys.Handheld.Socket().SetDeliveryObserver(s.clock.observe)
		sys.Laptop.Socket().SetDeliveryObserver(s.clock.observe)
	}
	return s, nil
}

// maxInFlight bounds the frames sent but not yet complete. It never binds
// while the host keeps up (one or two frames are in flight, some twenty
// after a swap). After a stall of the whole process — 100 ms and more
// happen on a shared host — it stops the catch-up burst from overflowing
// netsim's 1,024-datagram buffers, which would lose frames and fail the
// run: 64 frames are 576 datagrams per link.
const maxInFlight = 64

// pace sends the next n frames open loop: frame k of the call is due at
// start + k×interval whether or not its predecessors have gone out, and
// everything downstream is timed from that due time, so a frame held back
// by a stall or by maxInFlight is charged for the wait. atFrame, when set,
// runs before the frame with that id is sent.
func (s *stream) pace(n int, atFrame func(id int)) error {
	start := time.Now()
	first := s.sent
	for k := 0; k < n; k++ {
		id := s.sent
		due := start.Add(time.Duration(k) * s.interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if old := id - maxInFlight; old >= first {
			for deadline := time.Now().Add(stepTimeout); ; time.Sleep(100 * time.Microsecond) {
				if _, done := s.clock.completedAt(old); done || time.Now().After(deadline) {
					break
				}
			}
		}
		if atFrame != nil {
			atFrame(id)
		}
		sentAt := time.Now()
		if err := s.sys.Server.SendFrame(video.Frame{ID: uint32(id), Payload: s.payloads[id%len(s.payloads)]}); err != nil {
			return err
		}
		s.sendTook[id] = time.Since(sentAt)
		s.late[id] = sentAt.Sub(due)
		s.due[id] = due.Sub(s.clock.epoch)
		s.sent++
	}
	return s.sys.Drain(stepTimeout)
}

// delay returns frame id's delay from its due time to its completion on
// both clients.
func (s *stream) delay(id int) (time.Duration, bool) {
	at, ok := s.clock.completedAt(id)
	return at - s.due[id], ok
}

// longestGap returns the longest interval between consecutive frame
// completions among frames [lo, hi): what a viewer sees as a freeze.
func (s *stream) longestGap(lo, hi int) time.Duration {
	var gap time.Duration
	prev, ok := s.clock.completedAt(lo)
	for id := lo + 1; id < hi && ok; id++ {
		var at time.Duration
		if at, ok = s.clock.completedAt(id); ok {
			gap = max(gap, at-prev)
			prev = at
		}
	}
	return gap
}

// verify closes the system and checks everything it delivered: every frame
// sent was reassembled intact on both players, nothing leaked past the
// decoders, nothing was dropped or left incomplete.
func (s *stream) verify() (lost, corrupt, dropped int, problems []string) {
	for id := 0; id < s.sent; id++ {
		if _, ok := s.clock.completedAt(id); !ok {
			lost++
		}
	}
	if lost > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d frames never completed on both clients", lost, s.sent))
	}
	for _, sub := range []*netsim.Subscription{s.sys.HandheldSub, s.sys.LaptopSub} {
		if _, n := sub.Stats(); n != 0 {
			dropped += n
			problems = append(problems, fmt.Sprintf("netsim dropped %d datagrams on the %s link", n, sub.Name()))
		}
	}
	if err := s.sys.Close(); err != nil {
		problems = append(problems, "closing the video system: "+err.Error())
	}
	for _, c := range []*video.Client{s.sys.Handheld, s.sys.Laptop} {
		st := c.Player().Finalize()
		corrupt += st.FramesCorrupted + st.PacketsUndecoded
		if st.FramesOK != s.sent || st.FramesCorrupted != 0 || st.PacketsUndecoded != 0 || st.FramesIncomplete != 0 {
			problems = append(problems, fmt.Sprintf("%s player: %+v after %d frames", c.Name(), st, s.sent))
		}
	}
	return lost, corrupt, dropped, problems
}

// streamSamples is what both stream workloads accumulate.
type streamSamples struct {
	frames   int
	lost     int
	corrupt  int
	dropped  int
	problems []string
	cost     meter

	delay    []float64 // µs, frames outside a swap (all of them on stream_steady)
	late     []float64 // µs, generator lateness of the same frames
	sendTook []float64 // µs, SendFrame wall of the same frames
	gap      []float64 // µs, longest completion gap per 150-frame chunk or episode

	// stream_swap only.
	swapDelay []float64 // µs, frames due while Execute ran
	swapWall  []float64 // µs, Execute wall
	stall     []float64 // µs per swap SendFrame sat blocked beyond its quiet median

	// Traced runs only.
	transit, chain time.Duration
	packets        int64
}

func (m *streamSamples) addProbe(p *packetProbe) {
	if p == nil {
		return
	}
	for i := range p.client {
		m.transit += p.client[i].transit
		m.chain += p.client[i].chain
		m.packets += p.client[i].packets
	}
}

// streamShape is what tells the two stream workloads apart.
type streamShape struct {
	fps, frames      int // per episode, each on a fresh system
	gapFrames        int // stretch of frames a longest completion gap is taken over
	handheld, laptop time.Duration
	swap             bool // adapt DES-64 → DES-128 mid-episode
	warmEpisodes     int
}

var (
	// stream_steady: zero-latency links, no adaptation. A system lives for
	// one second of stream: the player keeps every frame it ever finished,
	// and a system that has seen tens of thousands stalls the generator
	// under garbage collection for longer than netsim's 1,024-datagram
	// buffers absorb the catch-up burst — lost frames, a failed run.
	steadyShape = streamShape{fps: 2000, frames: 2000, gapFrames: 10, warmEpisodes: 1}
	// stream_swap: the paper's links; the action table only goes one way,
	// hence a fresh system per swap.
	swapShape = streamShape{
		fps: 1000, frames: 150, gapFrames: 150, handheld: 3 * time.Millisecond, laptop: 2 * time.Millisecond,
		swap: true, warmEpisodes: 3,
	}
)

const (
	// The swap is asked for at this frame ± swapJitter, drawn from the seed.
	swapAtFrame = 50
	swapJitter  = 10
)

// streamWorkload is stream_steady or stream_swap.
type streamWorkload struct {
	shape    streamShape
	c        config
	rng      *rand.Rand
	payloads [][]byte
	episodes int
	m        streamSamples

	// Traced stream_swap runs only, summed over the measured episodes.
	serverResets int64
	steps        int
	log          messageLog
	dwell        []float64
}

func (w *streamWorkload) setup(c config) error {
	w.c = c
	w.rng = rand.New(rand.NewSource(c.seed))
	w.payloads = makePayloads(c.seed)
	for i := 0; i < w.shape.warmEpisodes; i++ {
		if err := w.episode(nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	c.t.reset()
	return nil
}

func (w *streamWorkload) measure() error {
	deadline := time.Now().Add(w.c.window)
	for time.Now().Before(deadline) {
		if err := w.episode(&w.m); err != nil {
			return err
		}
	}
	return nil
}

// swapOutcome is what the operator goroutine reports of one adaptation.
type swapOutcome struct {
	from, to time.Duration // since the completion clock's epoch
	steps    int
	err      error
}

// episode streams one system's worth of frames and, on stream_swap, adapts
// it from DES-64 to DES-128 along the way. m == nil discards the samples
// (warm-up) and returns failed checks as an error.
func (w *streamWorkload) episode(m *streamSamples) error {
	w.episodes++
	shape, t := w.shape, w.c.t
	s, err := newStream(w.c.seed+int64(w.episodes), shape.handheld, shape.laptop, shape.fps, shape.frames, w.payloads, t != nil)
	if err != nil {
		return err
	}
	var d *deployment
	var atFrame func(int)
	swapped := make(chan swapOutcome, 1)
	trigger := shape.frames // never reached without a swap
	if shape.swap {
		sockets := make(map[string]agent.LocalProcess)
		for name, sp := range s.sys.Processes() {
			sockets[name] = sp
		}
		if d, err = deploy(deployOptions{t: t, sockets: sockets}); err != nil {
			_ = s.sys.Close()
			return err
		}
		defer d.close()
		trigger = swapAtFrame - swapJitter + w.rng.Intn(2*swapJitter+1)
		atFrame = func(id int) {
			if id != trigger {
				return
			}
			go func() { // the operator: asks for the adaptation and waits for it
				from := time.Since(s.clock.epoch)
				a, err := d.adapt()
				swapped <- swapOutcome{from, from + a.wall, a.steps, err}
			}()
		}
	}

	start := readMeter()
	err = s.pace(shape.frames, atFrame)
	var sw swapOutcome
	if s.sent > trigger {
		sw = <-swapped
	}
	var cost meter
	cost.add(start)
	if err == nil {
		err = sw.err
	}
	if err == nil && shape.swap {
		want := map[string][]string{
			paper.ProcessServer: {"E2"}, paper.ProcessHandheld: {"D3"}, paper.ProcessLaptop: {"D5"},
		}
		if got := s.sys.ConfigurationOf(); !reflect.DeepEqual(got, want) {
			err = fmt.Errorf("filter chains after the swap are %v, want %v", got, want)
		}
	}
	lost, corrupt, dropped, problems := s.verify()
	if err != nil {
		problems = append(problems, fmt.Sprintf("episode %d: %v", w.episodes, err))
	}
	if m == nil {
		if len(problems) > 0 {
			return fmt.Errorf("%s", problems[0])
		}
		return nil
	}
	m.frames += shape.frames
	m.lost += lost
	m.corrupt += corrupt
	m.dropped += dropped
	m.problems = append(m.problems, problems...)
	if err != nil {
		return nil
	}
	m.cost.cpu += cost.cpu
	m.cost.mallocs += cost.mallocs
	w.record(m, s, sw)
	if t != nil && shape.swap {
		w.serverResets += d.procs[paper.ProcessServer].resets.Load()
		w.steps += sw.steps
		w.log.sent.Add(d.log.sent.Load())
		if len(w.log.captured) == 0 {
			w.log.captured = d.log.captured
		}
		w.dwell = append(w.dwell, d.sink.all...)
	}
	return nil
}

// record adds a verified episode's timings to m.
func (w *streamWorkload) record(m *streamSamples, s *stream, sw swapOutcome) {
	shape := w.shape
	for lo := 0; lo+shape.gapFrames <= shape.frames; lo += shape.gapFrames {
		m.gap = append(m.gap, micros(s.longestGap(lo, lo+shape.gapFrames)))
	}
	var quietSend []float64
	for id := 0; id < shape.frames; id++ {
		delay, ok := s.delay(id)
		if !ok {
			continue
		}
		if shape.swap && s.due[id] >= sw.from && s.due[id] <= sw.to {
			m.swapDelay = append(m.swapDelay, micros(delay))
			continue
		}
		m.delay = append(m.delay, micros(delay))
		m.late = append(m.late, micros(s.late[id]))
		quietSend = append(quietSend, micros(s.sendTook[id]))
	}
	m.sendTook = append(m.sendTook, quietSend...)
	m.addProbe(s.probe)
	if !shape.swap {
		if w.c.t != nil && w.episodes == shape.warmEpisodes+1 {
			w.traceFrames(s)
		}
		return
	}
	m.swapWall = append(m.swapWall, micros(sw.to-sw.from))
	usual := median(quietSend)
	var stall float64
	for id := 0; id < shape.frames; id++ {
		stall += max(0, micros(s.sendTook[id])-usual)
	}
	m.stall = append(m.stall, stall)
}

// traceFrames writes the first frames of a traced stream_steady run to the
// span file: each frame from its due time to its completion, with the
// SendFrame call inside it.
func (w *streamWorkload) traceFrames(s *stream) {
	for id := 0; id < min(s.sent, keepTraces); id++ {
		if at, ok := s.clock.completedAt(id); ok {
			due := s.clock.epoch.Add(s.due[id])
			sent := due.Add(s.late[id])
			w.c.t.operation([]string{"frame", "video.sendframe"},
				[]time.Time{due, sent}, []time.Time{s.clock.epoch.Add(at), sent.Add(s.sendTook[id])})
		}
	}
}

func (w *streamWorkload) finish() {}
func (w *streamWorkload) close()  {}

func (w *streamWorkload) verdict() (attempted, failed int, problems []string) {
	m := &w.m
	return m.frames, min(m.frames, max(m.lost+m.corrupt, len(m.problems))), m.problems
}

func (w *streamWorkload) primary() float64 {
	if w.shape.swap {
		return median(w.m.swapWall)
	}
	return median(w.m.delay)
}

func (w *streamWorkload) endToEnd() (map[string]metric, map[string]summary) {
	m := &w.m
	out := map[string]metric{
		"cpu_us_per_frame": {per(micros(m.cost.cpu), m.frames), "us"},
		"allocs_per_frame": {per(float64(m.cost.mallocs), m.frames), "count"},
		"frames_lost":      {float64(m.lost), "count"},
		"frames_corrupt":   {float64(m.corrupt), "count"},
	}
	timings := map[string]summary{
		"gen_late_us":  summarize(m.late),
		"sendframe_us": summarize(m.sendTook),
	}
	delay, gap := summarize(m.delay), summarize(m.gap)
	if !w.shape.swap {
		timings["frame_delay_us"], timings["freeze_us"] = delay, gap
		out["frame_delay_p50_us"] = metric{delay.P50, "us"}
		out["frame_delay_p90_us"] = metric{delay.P90, "us"}
		out["freeze_p50_us"] = metric{gap.P50, "us"}
		out["freeze_p90_us"] = metric{gap.P90, "us"}
		return out, timings
	}
	ms := func(us float64) metric { return metric{us / 1e3, "ms"} }
	wall, swapDelay := summarize(m.swapWall), summarize(m.swapDelay)
	timings["swap_blackout_us"], timings["swap_latency_us"] = gap, wall
	timings["swap_frame_delay_us"], timings["quiet_frame_delay_us"] = swapDelay, delay
	out["swap_blackout_p50_ms"] = ms(gap.P50)
	out["swap_blackout_p90_ms"] = ms(gap.P90)
	out["swap_latency_p50_ms"] = ms(wall.P50)
	out["swap_frame_delay_p50_ms"] = ms(swapDelay.P50)
	out["swap_frame_delay_p90_ms"] = ms(swapDelay.P90)
	out["quiet_frame_delay_p50_ms"] = ms(delay.P50)
	return out, timings
}

// layers are what the packet probe and the generator saw of the data
// plane's layers and, on stream_swap, what the traced wrappers saw of the
// adaptation.
func (w *streamWorkload) layers() map[string]metric {
	m := &w.m
	late := summarize(m.late)
	out := map[string]metric{
		"video.sendframe_us":               {median(m.sendTook), "us"},
		"netsim.transit_excess_us":         {per(micros(m.transit), int(m.packets)), "us"},
		"netsim.dropped":                   {float64(m.dropped), "count"},
		"metasocket.recv_chain_ns_per_pkt": {per(float64(m.chain), int(m.packets)), "ns"},
		"harness.gen_late_p50_us":          {late.P50, "us"},
		"harness.gen_late_p99_us":          {late.P99, "us"},
	}
	if !w.shape.swap {
		return out
	}
	t, swaps := w.c.t, len(m.swapWall)
	us := func(v float64) metric { return metric{v, "us"} }
	out["adapters.reset_ms_sender"] = metric{t.perCall("adapters.sender.reset") / 1e3, "ms"}
	out["adapters.reset_ms_receiver"] = metric{t.perCall("adapters.receiver.reset") / 1e3, "ms"}
	out["adapters.inaction_us"] = us(t.perCall("adapters.sender.inaction", "adapters.receiver.inaction"))
	out["adapters.resume_us"] = us(t.perCall("adapters.sender.resume", "adapters.receiver.resume"))
	out["adapters.server_steps_blocked"] = metric{per(float64(w.serverResets), swaps), "count"}
	out["agent.reset_us"] = us(t.perOp("adapters.sender.reset", "adapters.receiver.reset"))
	out["agent.inaction_us"] = us(t.perOp("adapters.sender.inaction", "adapters.receiver.inaction"))
	out["agent.resume_us"] = us(t.perOp("adapters.sender.resume", "adapters.receiver.resume"))
	out["agent.blocked_dwell_ms"] = metric{mean(w.dwell) / 1e3, "ms"}
	out["manager.execute_us"] = us(t.perOpInclusive("manager.execute"))
	out["manager.unattributed_us"] = us(t.perOp("manager.execute"))
	out["manager.steps_per_adapt"] = metric{per(float64(w.steps), swaps), "count"}
	out["transport.send_us"] = us(t.perOp("transport.send"))
	msgs := per(float64(w.log.sent.Load()), swaps)
	out["transport.msgs_per_adapt"] = metric{msgs, "count"}
	out["metasocket.sender_stall_ms_per_swap"] = metric{mean(m.stall) / 1e3, "ms"}
	for k, v := range codecLayers(w.log.captured, msgs) {
		out[k] = v
	}
	return out
}
