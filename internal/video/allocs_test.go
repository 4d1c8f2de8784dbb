//go:build !race

package video

import (
	"runtime"
	"testing"
	"time"
)

// The allocation gates run without the race detector, which adds
// allocations of its own.

// TestFramePathAllocs is the benchmark's stream_steady allocs_per_op,
// reproduced in tier-1: 2,048-byte frames through a real System on
// zero-latency links — packetize, encrypt, marshal, multicast to two
// clients, parse, decrypt, reassemble, verify. What remains per frame is
// netsim's copy of each of the 9 datagrams (the links own it) plus the
// amortised growth of the players' frame maps.
func TestFramePathAllocs(t *testing.T) {
	const warm, frames, perFrame = 50, 500, 14
	sys, err := NewSystem(SystemOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	payloads := make([][]byte, 64)
	for i := range payloads {
		payloads[i] = GenerateFrame(uint32(i), 2048).Payload
	}
	send := func(from, to int) {
		for id := from; id < to; id++ {
			if err := sys.Server.SendFrame(Frame{ID: uint32(id), Payload: payloads[id%len(payloads)]}); err != nil {
				t.Fatal(err)
			}
			// Keep within the links' buffers: the test counts allocations,
			// not what a flooded link drops.
			if id%32 == 31 {
				if err := sys.Drain(10 * time.Second); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sys.Drain(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	send(0, warm)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	send(warm, warm+frames)
	runtime.ReadMemStats(&after)

	got := float64(after.Mallocs-before.Mallocs) / frames
	t.Logf("%.2f allocations per frame", got)
	if got > perFrame {
		t.Errorf("%.2f allocations per frame, want at most %d", got, perFrame)
	}
	for _, c := range []*Client{sys.Handheld, sys.Laptop} {
		if st := c.Player().Snapshot(); st.FramesOK != warm+frames || st.FramesCorrupted != 0 {
			t.Errorf("%s: %+v after %d frames", c.Name(), st, warm+frames)
		}
	}
}

// TestPlayerDeliverAllocs: once the player has an assembly to recycle, a
// fragment costs it nothing; what remains is the frame map's growth.
func TestPlayerDeliverAllocs(t *testing.T) {
	pl := NewPlayer()
	frags := fragment(GenerateFrame(1, 2048), 256)
	id := uint32(0)
	frame := func() {
		for _, p := range frags {
			p.Frame = id
			_ = pl.Deliver(p) // Deliver never fails
		}
		id++
	}
	frame()
	if n := testing.AllocsPerRun(500, frame); n > 0 {
		t.Errorf("%v allocations per delivered frame, want the map's amortised growth only (under 1)", n)
	}
}

// TestSenderFirstPhasesAllocs: the phase policy reads the phases compiled
// from the declared dataflow. A client step allocates its downstream phase
// and the wave that holds it; the server's solo step needs no order and
// allocates nothing (it read 3 and 2 while each call ranked the dataflow
// afresh).
func TestSenderFirstPhasesAllocs(t *testing.T) {
	for _, tc := range []struct {
		participants []string
		max          float64
	}{
		{[]string{"handheld"}, 2},
		{[]string{"handheld", "laptop", "server"}, 2},
		{[]string{"server"}, 0},
	} {
		got := testing.AllocsPerRun(100, func() { SenderFirstPhases(tc.participants) })
		if got > tc.max {
			t.Errorf("SenderFirstPhases(%v): %v allocations, want at most %v", tc.participants, got, tc.max)
		}
	}
}
