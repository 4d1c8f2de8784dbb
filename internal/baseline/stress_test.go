package baseline

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/video"
)

// TestSwapStress runs the safe DES-64 → DES-128 adaptation over and over
// under 1,000 frames/s of traffic, each episode on a fresh system with its
// own seed and swap point, on links whose jitter (and, in the lossy
// variant, loss) keeps the number of datagrams on the wire and in the
// hand-off queues different at every drain. A drain that let a reset
// through one datagram early would decode it with the wrong chain: the
// players would count a corrupted frame or an undecoded packet. The
// third variant doubles the rate: at 2,000 frames/s the wire is never
// empty between two steps of the MAP.
func TestSwapStress(t *testing.T) {
	const episodes = 100
	variants := map[string]struct {
		loss     float64
		interval time.Duration
	}{
		"jitter":       {0, time.Millisecond},
		"jitter+lossy": {0.05, time.Millisecond},
		"jitter+2kfps": {0, 500 * time.Microsecond},
	}
	for name, v := range variants {
		v := v
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for ep := 0; ep < episodes; ep++ {
				res, err := Run(SafeMAP{}, ExperimentOptions{
					Frames:     60,
					BodySize:   512,
					Interval:   v.interval,
					AdaptAfter: 10 + ep%25,
					Seed:       int64(1000 + ep),
					Handheld:   netsim.LinkProfile{Latency: 3 * time.Millisecond, Jitter: 2 * time.Millisecond, LossRate: v.loss},
					Laptop:     netsim.LinkProfile{Latency: 2 * time.Millisecond, Jitter: time.Millisecond, LossRate: v.loss},
				})
				if err != nil {
					t.Fatalf("episode %d: %v", ep, err)
				}
				if res.Corruption() != 0 {
					t.Fatalf("episode %d: corruption: handheld %+v laptop %+v", ep, res.Handheld, res.Laptop)
				}
				assertTargetConfig(t, res)
				if v.loss == 0 && (res.Handheld.FramesOK != int(res.FramesSent) || res.Laptop.FramesOK != int(res.FramesSent)) {
					t.Fatalf("episode %d: lossless links lost frames: sent %d, handheld %+v laptop %+v",
						ep, res.FramesSent, res.Handheld, res.Laptop)
				}
			}
		})
	}
}

// TestServerBlockedOncePerMAP holds the shape of the swap: of the MAP's
// five steps only one changes the server, the phase policy conscripts it
// into the other four so that the clients' drains have a sender to be
// downstream of, and a conscripted bystander keeps streaming. Over the
// paper's links at 1,000 frames/s the send socket is therefore blocked
// once, no frame handed to it during the swap waits a millisecond for it,
// every receiver reset still finds nothing stranded, and both players
// decode everything.
func TestServerBlockedOncePerMAP(t *testing.T) {
	const (
		frames   = 150
		interval = time.Millisecond
		stallMax = time.Millisecond
	)
	var stalls []time.Duration
	// A stall is wall time and the machine is shared: the counts must hold
	// in every episode, the timing in one of three (and means nothing under
	// the race detector).
	for ep := 0; ep < 3; ep++ {
		tel := telemetry.NewRegistry()
		sys, err := video.NewSystem(video.SystemOptions{
			Seed:      int64(2400 + ep),
			Handheld:  netsim.LinkProfile{Latency: 3 * time.Millisecond},
			Laptop:    netsim.LinkProfile{Latency: 2 * time.Millisecond},
			Telemetry: tel,
		})
		if err != nil {
			t.Fatal(err)
		}

		var swapping atomic.Bool
		var stall time.Duration // longest SendFrame while the MAP ran
		streamErr := make(chan error, 1)
		go func() {
			start := time.Now()
			for i := 0; i < frames; i++ {
				time.Sleep(time.Until(start.Add(time.Duration(i) * interval)))
				during := swapping.Load()
				sent := time.Now()
				if err := sys.Server.SendFrame(video.GenerateFrame(uint32(i), 2048)); err != nil {
					streamErr <- err
					return
				}
				if took := time.Since(sent); during && took > stall {
					stall = took
				}
			}
			streamErr <- nil
		}()
		for sys.Server.FramesSent() < 40 {
			time.Sleep(time.Millisecond)
		}
		swapping.Store(true)
		_, err = SafeMAP{}.Adapt(sys)
		swapping.Store(false)
		if err != nil {
			t.Fatal(err)
		}
		if sent := sys.Server.FramesSent(); sent >= frames {
			t.Fatalf("the stream ended (%d frames) before the MAP did: nothing was streamed through it", sent)
		}
		if err := <-streamErr; err != nil {
			t.Fatal(err)
		}
		if err := sys.Drain(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		hh, lp := sys.Handheld.Player().Finalize(), sys.Laptop.Player().Finalize()
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}

		if got := tel.Histogram("metasocket.send.blocked.latency").Count(); got != 1 {
			t.Errorf("episode %d: send socket blocked %d times in one MAP, want 1", ep, got)
		}
		if got := tel.Gauge("metasocket.recv.pending_at_block").Value(); got != 0 {
			t.Errorf("episode %d: metasocket.recv.pending_at_block = %d after drained resets, want 0", ep, got)
		}
		if hh.FramesCorrupted+hh.PacketsUndecoded+lp.FramesCorrupted+lp.PacketsUndecoded != 0 ||
			hh.FramesOK != frames || lp.FramesOK != frames {
			t.Errorf("episode %d: handheld %+v laptop %+v, want %d frames OK on each and nothing else", ep, hh, lp, frames)
		}
		if stalls = append(stalls, stall); stall <= stallMax || raceEnabled {
			return
		}
	}
	t.Errorf("longest SendFrame during the swap, per episode: %v; want at most %v in one of them", stalls, stallMax)
}
