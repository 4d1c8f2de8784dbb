package safeadapt_test

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	safeadapt "repro"
	"repro/internal/ftdc"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/paper"
	"repro/internal/telemetry"
	"repro/internal/video"
)

// TestClosedLoopMonitorTriggeredAdaptation is the paper's whole story in
// one test, with no human issuing the adaptation request: video streams
// over netsim under an always-on FTDC capture, the handheld link
// degrades mid-run, the live monitor sees the loss rate cross its
// threshold and requests the DES-64 → DES-128 hardening through the
// planner→manager pipeline, the swap completes safely mid-stream, the
// link recovers, and the capture file — decoded afterwards — shows the
// loss rising, the adaptation firing exactly once, and the loss falling
// back down. Monitor → plan → act, closed.
func TestClosedLoopMonitorTriggeredAdaptation(t *testing.T) {
	tel := telemetry.NewRegistry()
	tel.SetNode("loop-test")
	// A dumpless flight recorder: AutoDump is the hook that fsyncs the
	// capture at rollbacks/failures, and the protocol calls it via the
	// registry.
	tel.AttachFlight(telemetry.NewFlightRecorder("loop-test", 0))

	capturePath := filepath.Join(t.TempDir(), "loop.ftdc")
	capt, err := ftdc.StartCapture(tel, capturePath, ftdc.CaptureOptions{Interval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	sys, err := safeadapt.PaperCaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	app, err := video.NewSystem(video.SystemOptions{
		Seed:      41,
		Handheld:  netsim.LinkProfile{Latency: time.Millisecond},
		Laptop:    netsim.LinkProfile{Latency: time.Millisecond / 2},
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	procs := make(map[string]safeadapt.LocalProcess, 3)
	for name, sp := range app.Processes() {
		procs[name] = sp
	}
	dep, err := sys.Deploy(procs, safeadapt.DeployOptions{StepTimeout: 5 * time.Second, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	adapted := make(chan safeadapt.Result, 1)
	mon, err := monitor.New(tel, monitor.Rule{
		Name:      "handheld-loss",
		Source:    monitor.LossRate(app.HandheldSub),
		Threshold: 0.15,
		Clear:     0.05,
		Debounce:  2,
		Trigger: func() error {
			res, execErr := dep.Adapt(sys.Source(), sys.Target())
			if execErr != nil {
				return execErr
			}
			adapted <- res
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	// Stream in the background; tick the monitor explicitly so the test
	// controls the evaluation cadence.
	const frames = 1500
	streamErr := make(chan error, 1)
	go func() {
		streamErr <- app.Server.Stream(context.Background(), frames, 512, 500*time.Microsecond)
	}()
	for app.Server.FramesSent() < 200 {
		time.Sleep(time.Millisecond)
	}

	// Healthy phase: a few windows of clean traffic must not fire.
	for i := 0; i < 5; i++ {
		mon.Tick()
		time.Sleep(5 * time.Millisecond)
	}
	if got := tel.Counter("monitor.fires").Value(); got != 0 {
		t.Fatalf("monitor fired %d times on a healthy link", got)
	}

	// The link degrades.
	if err := app.Group.SetLossRate(paper.ProcessHandheld, 0.4); err != nil {
		t.Fatal(err)
	}
	var res safeadapt.Result
	deadline := time.After(30 * time.Second)
	fired := false
	for !fired {
		mon.Tick()
		select {
		case res = <-adapted:
			fired = true
		case <-deadline:
			t.Fatal("monitor never completed the adaptation")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if !res.Completed {
		t.Fatalf("monitor-triggered adaptation did not complete: %+v", res)
	}
	cfg := app.ConfigurationOf()
	if cfg[paper.ProcessServer][0] != "E2" || cfg[paper.ProcessHandheld][0] != "D3" || cfg[paper.ProcessLaptop][0] != "D5" {
		t.Fatalf("final chains = %v, want the DES-128 composition", cfg)
	}

	// The data plane's blackout is on record: every receiver reset drained
	// its link before blocking (nothing sent before the drain began was
	// still owed to the socket when it blocked — the server streams through
	// the client-only steps), and the time in the drain and the time each
	// socket was held blocked were measured.
	if got := tel.Gauge("metasocket.recv.pending_at_block").Value(); got != 0 {
		t.Errorf("metasocket.recv.pending_at_block = %d after drained resets, want 0", got)
	}
	for _, name := range []string{
		"metasocket.recv.drain.latency",
		"metasocket.recv.blocked.latency",
		"metasocket.send.blocked.latency",
	} {
		if tel.Histogram(name).Count() == 0 {
			t.Errorf("%s recorded nothing across a five-step adaptation", name)
		}
	}

	// The link recovers; the stream finishes on the hardened chain. Keep
	// ticking: the latched rule must not fire a second adaptation, and
	// must re-arm once the loss rate clears.
	if err := app.Group.SetLossRate(paper.ProcessHandheld, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mon.Tick()
		time.Sleep(5 * time.Millisecond)
	}
	if err := <-streamErr; err != nil {
		t.Fatal(err)
	}
	if err := app.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	mon.Tick() // one final quiet window after the drain
	if got := tel.Counter("monitor.fires").Value(); got != 1 {
		for _, ev := range tel.Events() {
			t.Logf("event %v %s %s", ev.At, ev.Scope, ev.Msg)
		}
		t.Fatalf("monitor fired %d times across the episode, want exactly 1", got)
	}
	if got := tel.Counter("monitor.rearms").Value(); got != 1 {
		t.Fatalf("rule re-armed %d times after recovery, want 1", got)
	}

	lp := app.Laptop.Player().Finalize()
	hh := app.Handheld.Player().Finalize()
	if hh.FramesCorrupted+hh.PacketsUndecoded+lp.FramesCorrupted+lp.PacketsUndecoded != 0 {
		t.Errorf("corruption through the loss episode: handheld %+v laptop %+v", hh, lp)
	}
	if lp.FramesOK != frames {
		t.Errorf("laptop (lossless link) decoded %d/%d frames", lp.FramesOK, frames)
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	if err := capt.Close(); err != nil {
		t.Fatal(err)
	}

	// The capture tells the story back. Decode and check the trajectory.
	capture, err := ftdc.ReadFile(capturePath)
	if err != nil {
		t.Fatal(err)
	}
	if capture.TornBytes != 0 {
		t.Fatalf("cleanly closed capture has %d torn bytes", capture.TornBytes)
	}
	if capture.NumSamples() < 10 {
		t.Fatalf("capture has only %d samples", capture.NumSamples())
	}

	_, loss := capture.Series("gauge.monitor.handheld-loss.permille")
	if len(loss) == 0 {
		t.Fatal("capture never recorded the monitored loss signal")
	}
	maxLoss, lastLoss := loss[0], loss[len(loss)-1]
	for _, v := range loss {
		if v > maxLoss {
			maxLoss = v
		}
	}
	if maxLoss < 150 {
		t.Errorf("capture max loss = %d permille, never shows the breach (threshold 150)", maxLoss)
	}
	if lastLoss > 50 {
		t.Errorf("capture final loss = %d permille, never shows the recovery", lastLoss)
	}

	_, drops := capture.Series("counter.netsim.datagrams.dropped")
	if len(drops) == 0 || drops[len(drops)-1] == 0 {
		t.Fatal("capture never recorded datagram drops despite the loss episode")
	}
	_, fires := capture.Series("counter.monitor.fires")
	if len(fires) == 0 || fires[len(fires)-1] != 1 {
		t.Fatalf("capture's final monitor.fires = %v, want 1", fires)
	}
	_, completed := capture.Series("counter.manager.adaptations.completed")
	if len(completed) == 0 || completed[len(completed)-1] != 1 {
		t.Fatalf("capture's final adaptations.completed = %v, want 1", completed)
	}
}
