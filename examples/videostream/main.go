// Videostream: the paper's Sec. 5 case study — hardening a live video
// multicast from DES-64 to DES-128 encryption while it streams, and
// contrasting the safe adaptation process with an unsafe hot swap.
//
// The example runs the same traffic twice: once adapted by the paper's
// protocol (manager + agents, MAP of five steps, every action in its
// global safe state), once by a naive direct swap. The safe run delivers
// every frame intact; the unsafe run measurably corrupts the stream.
//
// Run with: go run ./examples/videostream
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/baseline"
	"repro/internal/netsim"
	"repro/internal/video"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	opts := baseline.ExperimentOptions{
		Frames:     200,
		BodySize:   2048,
		Interval:   300 * time.Microsecond,
		AdaptAfter: 70,
		Seed:       42,
		// The handheld's weak wireless link has noticeable latency; the
		// laptop's is faster. Packets are therefore always in flight
		// when the adaptation fires — the dangerous condition.
		Handheld: netsim.LinkProfile{Latency: 4 * time.Millisecond},
		Laptop:   netsim.LinkProfile{Latency: 2 * time.Millisecond},
	}

	fmt.Println("== safe adaptation process (MAP: A2, A17, A1, A16/A4) ==")
	safe, err := baseline.Run(baseline.SafeMAP{
		Logf: func(format string, args ...any) { fmt.Printf("  manager: "+format+"\n", args...) },
	}, opts)
	if err != nil {
		return err
	}
	printResult(safe)

	fmt.Println("\n== unsafe direct swap (no protocol) ==")
	unsafe, err := baseline.Run(baseline.UnsafeDirect{}, opts)
	if err != nil {
		return err
	}
	printResult(unsafe)

	fmt.Println("\n== verdict ==")
	fmt.Printf("safe adaptation corruption evidence:   %d\n", safe.Corruption())
	fmt.Printf("unsafe adaptation corruption evidence: %d\n", unsafe.Corruption())
	// Only the safe run is a verdict: how much the unsafe swap corrupts
	// depends on what happens to be in flight when it fires.
	if n := safe.Corruption(); n > 0 {
		return fmt.Errorf("the safe adaptation corrupted the stream: %d", n)
	}
	if unsafe.Corruption() > 0 {
		fmt.Println("reproduced: only the undisciplined adaptation corrupts the stream")
	}
	return nil
}

func printResult(res baseline.ExperimentResult) {
	fmt.Printf("  reconfiguration took %v; final chains %v\n",
		res.Report.Duration.Round(100*time.Microsecond), res.FinalConfig)
	printStats("handheld", res.Handheld)
	printStats("laptop", res.Laptop)
}

func printStats(name string, s video.Stats) {
	fmt.Printf("  %-9s framesOK=%d corrupted=%d incomplete=%d leakedCiphertext=%d\n",
		name, s.FramesOK, s.FramesCorrupted, s.FramesIncomplete, s.PacketsUndecoded)
}
