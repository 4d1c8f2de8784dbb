package baseline

import (
	"testing"
	"time"

	"repro/internal/netsim"
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
