package baseline

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/paper"
)

// latencyOpts gives both client links real latency so packets are always
// in flight when a strategy swaps components — the situation that
// separates safe from unsafe adaptation.
func latencyOpts(seed int64) ExperimentOptions {
	return ExperimentOptions{
		Frames:     150,
		BodySize:   1024,
		Interval:   300 * time.Microsecond,
		AdaptAfter: 50,
		Seed:       seed,
		Handheld:   netsim.LinkProfile{Latency: 4 * time.Millisecond},
		Laptop:     netsim.LinkProfile{Latency: 2 * time.Millisecond},
	}
}

func assertTargetConfig(t *testing.T, res ExperimentResult) {
	t.Helper()
	cfg := res.FinalConfig
	if got := cfg[paper.ProcessServer]; len(got) != 1 || got[0] != "E2" {
		t.Errorf("server chain = %v, want [E2]", got)
	}
	if got := cfg[paper.ProcessHandheld]; len(got) != 1 || got[0] != "D3" {
		t.Errorf("handheld chain = %v, want [D3]", got)
	}
	if got := cfg[paper.ProcessLaptop]; len(got) != 1 || got[0] != "D5" {
		t.Errorf("laptop chain = %v, want [D5]", got)
	}
}

// TestSafeMAPZeroCorruption is the headline reproduction: the paper's
// safe adaptation process hardens DES-64 to DES-128 mid-stream with zero
// corrupted frames and zero leaked (undecoded) packets on both clients.
func TestSafeMAPZeroCorruption(t *testing.T) {
	res, err := Run(SafeMAP{}, latencyOpts(11))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Corruption(); got != 0 {
		t.Errorf("safe adaptation corrupted the stream: corruption=%d handheld=%+v laptop=%+v",
			got, res.Handheld, res.Laptop)
	}
	assertTargetConfig(t, res)
	// Every streamed frame must have arrived intact (ideal links, safe
	// protocol: nothing may be lost either).
	if res.Handheld.FramesOK != int(res.FramesSent) {
		t.Errorf("handheld frames OK = %d of %d", res.Handheld.FramesOK, res.FramesSent)
	}
	if res.Laptop.FramesOK != int(res.FramesSent) {
		t.Errorf("laptop frames OK = %d of %d", res.Laptop.FramesOK, res.FramesSent)
	}
}

// TestUnsafeDirectCorrupts: the naive hot swap measurably corrupts the
// stream — the failure mode the paper's process exists to prevent.
func TestUnsafeDirectCorrupts(t *testing.T) {
	res, err := Run(UnsafeDirect{}, latencyOpts(12))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Corruption(); got == 0 {
		t.Errorf("unsafe adaptation produced no corruption (handheld=%+v laptop=%+v)",
			res.Handheld, res.Laptop)
	}
	assertTargetConfig(t, res) // structurally it still lands on the target
}

// TestLocalQuiescenceCorrupts: blocking each socket at a local packet
// boundary is not enough — packets in flight between hosts still hit
// mismatched decoders. This is the paper's argument for the *global*
// safe condition.
func TestLocalQuiescenceCorrupts(t *testing.T) {
	res, err := Run(LocalQuiescence{}, latencyOpts(13))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Corruption(); got == 0 {
		t.Errorf("local quiescence produced no corruption (handheld=%+v laptop=%+v)",
			res.Handheld, res.Laptop)
	}
}

// TestDrainedCompoundSafeButLongBlocking: freezing the whole system is
// safe, but its single blocking window spans the full drain — the shape
// of the paper's expensive compound actions (A13–A15, cost 150) versus
// the MAP's five cheap steps (cost 50).
func TestDrainedCompoundSafeButLongBlocking(t *testing.T) {
	res, err := Run(DrainedCompound{}, latencyOpts(14))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Corruption(); got != 0 {
		t.Errorf("drained compound corrupted the stream: %d", got)
	}
	assertTargetConfig(t, res)
	// One global window: the server is frozen before, and released after,
	// both clients' drain-and-swap. (How long that is depends on how long
	// before the freeze the last frame left: the drain ends the moment it
	// lands, up to one link latency later.)
	w := res.Report.BlockedWindows
	if !(w[paper.ProcessServer] >= w[paper.ProcessHandheld] && w[paper.ProcessHandheld] >= w[paper.ProcessLaptop] && w[paper.ProcessLaptop] > 0) {
		t.Errorf("blocked windows not nested server ⊇ handheld ⊇ laptop: %v", w)
	}
}

// TestStrategiesComparable runs all four strategies on the same seed and
// verifies the evaluation's qualitative table: only the undisciplined
// strategies corrupt.
func TestStrategiesComparable(t *testing.T) {
	type row struct {
		strategy    Strategy
		wantCorrupt bool
	}
	rows := []row{
		{UnsafeDirect{}, true},
		{LocalQuiescence{}, true},
		{DrainedCompound{}, false},
		{SafeMAP{}, false},
	}
	for _, r := range rows {
		res, err := Run(r.strategy, latencyOpts(99))
		if err != nil {
			t.Fatalf("%s: %v", r.strategy.Name(), err)
		}
		corrupted := res.Corruption() > 0
		if corrupted != r.wantCorrupt {
			t.Errorf("%s: corruption=%d, wantCorrupt=%v (handheld=%+v laptop=%+v)",
				r.strategy.Name(), res.Corruption(), r.wantCorrupt, res.Handheld, res.Laptop)
		}
	}
}
