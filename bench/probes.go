package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/action"
	"repro/internal/cipherkit"
	"repro/internal/invariant"
	"repro/internal/journal"
	"repro/internal/metasocket"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/paper"
	"repro/internal/planner"
	"repro/internal/telemetry"
	"repro/internal/video"
)

// The probes time single layers through their public calls, outside any
// workload: the costs a workload's traced wrappers cannot separate (one
// cipher call inside one filter inside one SendFrame). Every traced run
// includes them.

// timeLoop returns the mean nanoseconds and heap allocations per call.
func timeLoop(n int, call func(i int)) (ns, allocs float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	for i := 0; i < n; i++ {
		call(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	return float64(elapsed) / float64(n), float64(ms.Mallocs-mallocs) / float64(n)
}

// medianOf returns the median microseconds of n timed calls.
func medianOf(n int, call func() error) (float64, error) {
	took := make([]float64, n)
	for i := range took {
		start := time.Now()
		if err := call(); err != nil {
			return 0, err
		}
		took[i] = micros(time.Since(start))
	}
	return median(took), nil
}

func runProbes(c config) (map[string]metric, error) {
	out := make(map[string]metric)
	for _, probe := range []func(config, map[string]metric) error{
		probePlanner, probeCipher, probeSendSocket, probePlayer, probeNetsim,
		probeTelemetry, probeJournal, probeSaturation,
	} {
		if err := probe(c, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func probePlanner(_ config, out map[string]metric) error {
	scenario, err := paper.NewScenario()
	if err != nil {
		return err
	}
	var built *planner.Planner
	build, err := medianOf(30, func() error {
		p, err := planner.New(scenario.Invariants, scenario.Actions)
		if err == nil {
			_, err = p.Graph()
		}
		built = p
		return err
	})
	if err != nil {
		return err
	}
	plan, err := medianOf(500, func() error {
		_, err := built.Plan(scenario.Source, scenario.Target)
		return err
	})
	if err != nil {
		return err
	}
	set, actions, src, tgt, err := syntheticPairs(12)
	if err != nil {
		return err
	}
	wide, err := planner.New(set, actions)
	if err != nil {
		return err
	}
	decomposed, err := medianOf(30, func() error {
		p, err := wide.PlanDecomposed(src, tgt)
		if err == nil && p.Cost() != 12*10*time.Millisecond {
			err = fmt.Errorf("decomposed plan costs %v", p.Cost())
		}
		return err
	})
	out["planner.build_us"] = metric{build, "us"}
	out["planner.plan_us"] = metric{plan, "us"}
	out["planner.decomposed12_us"] = metric{decomposed, "us"}
	return err
}

// syntheticPairs builds the scalability benchmark's system: `pairs`
// independent one-of pairs with replace actions both ways, so the safe set
// has 2^pairs configurations.
func syntheticPairs(pairs int) (*invariant.Set, []action.Action, model.Config, model.Config, error) {
	var comps []model.Component
	for i := 0; i < pairs; i++ {
		proc := fmt.Sprintf("p%d", i)
		comps = append(comps,
			model.Component{Name: fmt.Sprintf("A%d", i), Process: proc},
			model.Component{Name: fmt.Sprintf("B%d", i), Process: proc})
	}
	reg, err := model.NewRegistry(comps...)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	var invs []invariant.Invariant
	var actions []action.Action
	var from, to []string
	for i := 0; i < pairs; i++ {
		a, b := fmt.Sprintf("A%d", i), fmt.Sprintf("B%d", i)
		inv, err := invariant.NewStructural(fmt.Sprintf("pair%d", i), fmt.Sprintf("oneof(%s, %s)", a, b))
		if err != nil {
			return nil, nil, 0, 0, err
		}
		invs = append(invs, inv)
		actions = append(actions,
			action.MustNew(fmt.Sprintf("F%d", i), a+" -> "+b, 10*time.Millisecond, ""),
			action.MustNew(fmt.Sprintf("R%d", i), b+" -> "+a, 10*time.Millisecond, ""))
		from, to = append(from, a), append(to, b)
	}
	set, err := invariant.NewSet(reg, invs...)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	src, err := reg.ConfigOf(from...)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	tgt, err := reg.ConfigOf(to...)
	return set, actions, src, tgt, err
}

func probeCipher(_ config, out map[string]metric) error {
	const n = 3000
	plain := video.GenerateFrame(7, 1024-8).Payload // 1 KiB
	var allocs float64
	for _, c := range []struct {
		name   string
		cipher *cipherkit.Cipher
	}{{"64", cipherkit.MustDefault64()}, {"128", cipherkit.MustDefault128()}} {
		var sealed []byte
		enc, encAllocs := timeLoop(n, func(int) { sealed = c.cipher.Encrypt(plain) })
		var failed error
		dec, decAllocs := timeLoop(n, func(int) {
			if _, err := c.cipher.Decrypt(sealed); err != nil {
				failed = err
			}
		})
		if failed != nil {
			return failed
		}
		out["cipherkit.enc"+c.name+"_ns_per_kb"] = metric{enc, "ns"}
		out["cipherkit.dec"+c.name+"_ns_per_kb"] = metric{dec, "ns"}
		allocs += (encAllocs + decAllocs) / 4
	}
	out["cipherkit.allocs_per_op"] = metric{allocs, "count"}
	return nil
}

// probeSendSocket times the send MetaSocket (DES-64 encoder, marshal) into
// a transmit function that does nothing, at the stream's fragment size and
// at a size where the cipher no longer hides the per-packet cost.
func probeSendSocket(_ config, out map[string]metric) error {
	const n = 20000
	for _, size := range []int{256, 64} {
		sock, err := metasocket.NewSendSocket(func([]byte) error { return nil },
			metasocket.NewEncoder("E1", cipherkit.MustDefault64()))
		if err != nil {
			return err
		}
		payload := make([]byte, size)
		var failed error
		ns, allocs := timeLoop(n, func(i int) {
			if err := sock.Send(metasocket.Packet{Frame: uint32(i), Count: 1, Payload: payload}); err != nil {
				failed = err
			}
		})
		sock.Close()
		if failed != nil {
			return failed
		}
		out[fmt.Sprintf("metasocket.send_ns_per_pkt_%d", size)] = metric{ns, "ns"}
		if size == 256 {
			out["metasocket.send_allocs_per_pkt"] = metric{allocs, "count"}
		}
	}
	return nil
}

func probePlayer(_ config, out map[string]metric) error {
	const frames = 2000
	payload := video.GenerateFrame(11, frameBody).Payload
	player := video.NewPlayer()
	ns, _ := timeLoop(frames*fragsPerFrame, func(i int) {
		idx := i % fragsPerFrame
		lo := idx * 256
		_ = player.Deliver(metasocket.Packet{ // Deliver never fails
			Frame: uint32(i / fragsPerFrame), Index: uint16(idx), Count: fragsPerFrame,
			Payload: payload[lo:min(lo+256, len(payload))],
		})
	})
	if st := player.Finalize(); st.FramesOK != frames {
		return fmt.Errorf("player probe: %+v", st)
	}
	out["video.player_deliver_ns_per_pkt"] = metric{ns, "ns"}
	return nil
}

// probeNetsim times Group.Send to two zero-latency subscribers, in bursts
// small enough that their buffers never overflow.
func probeNetsim(c config, out map[string]metric) error {
	const bursts, burst = 40, 500
	group := netsim.NewGroup(c.seed)
	defer group.Close()
	var subs []*netsim.Subscription
	for _, name := range []string{"a", "b"} {
		sub, err := group.Subscribe(name, netsim.LinkProfile{}, 1024)
		if err != nil {
			return err
		}
		subs = append(subs, sub)
	}
	datagram := make([]byte, 300)
	var total time.Duration
	for b := 0; b < bursts; b++ {
		start := time.Now()
		for i := 0; i < burst; i++ {
			if err := group.Send(datagram); err != nil {
				return err
			}
		}
		total += time.Since(start)
		for _, sub := range subs {
			for i := 0; i < burst; i++ {
				<-sub.Recv()
			}
		}
	}
	out["netsim.send_ns_per_datagram"] = metric{float64(total) / (bursts * burst), "ns"}
	return nil
}

func probeTelemetry(_ config, out map[string]metric) error {
	const n = 100000
	tel := telemetry.NewRegistry()
	spanNs, _ := timeLoop(n, func(int) { tel.StartSpan("probe").End() })
	hist := tel.Histogram("probe.latency")
	observeNs, _ := timeLoop(n, func(i int) { hist.Observe(time.Duration(i)) })
	out["telemetry.span_ns"] = metric{spanNs, "ns"}
	out["telemetry.observe_ns"] = metric{observeNs, "ns"}
	return nil
}

// probeJournal times 200 commits (append + fsync) on the filesystem
// adapt_prod keeps its journals on: what one fsync costs there.
func probeJournal(c config, out map[string]metric) error {
	j, err := journal.OpenFile(filepath.Join(c.scratch, "fsync-probe.journal"))
	if err != nil {
		return err
	}
	defer j.Close()
	rec := journal.Record{Epoch: 1, Kind: journal.KindPoNR}
	commit, err := medianOf(200, func() error {
		if err := j.Append(rec); err != nil {
			return err
		}
		return j.Sync()
	})
	out["journal.fsync_disk_us"] = metric{commit, "us"}
	return err
}

// probeSaturation streams closed loop with 32 frames in flight for a
// second: the most the pipeline carries when the camera never waits.
func probeSaturation(c config, out map[string]metric) error {
	const window, maxFrames = 32, 60000
	s, err := newStream(c.seed, 0, 0, steadyShape.fps, maxFrames, makePayloads(c.seed), false)
	if err != nil {
		return err
	}
	defer s.sys.Close()
	start := time.Now()
	for s.sent < maxFrames && time.Since(start) < time.Second {
		if s.sent >= window {
			for {
				if _, ok := s.clock.completedAt(s.sent - window); ok {
					break
				}
				runtime.Gosched()
			}
		}
		if err := s.sys.Server.SendFrame(video.Frame{ID: uint32(s.sent), Payload: s.payloads[s.sent%len(s.payloads)]}); err != nil {
			return err
		}
		s.sent++
	}
	if err := s.sys.Drain(stepTimeout); err != nil {
		return err
	}
	out["video.frames_per_s_sat"] = metric{float64(s.sent) / time.Since(start).Seconds(), "1/s"}
	return nil
}
