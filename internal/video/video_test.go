package video

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/metasocket"
	"repro/internal/netsim"
	"repro/internal/paper"
)

func TestGenerateFrameDeterministic(t *testing.T) {
	a := GenerateFrame(7, 512)
	b := GenerateFrame(7, 512)
	if !bytes.Equal(a.Payload, b.Payload) {
		t.Error("frame generation must be deterministic")
	}
	c := GenerateFrame(8, 512)
	if bytes.Equal(a.Payload, c.Payload) {
		t.Error("different ids must differ")
	}
	if err := a.Verify(); err != nil {
		t.Errorf("generated frame fails verification: %v", err)
	}
}

func TestFrameVerifyDetectsCorruption(t *testing.T) {
	f := GenerateFrame(3, 256)
	f.Payload[100] ^= 1
	if err := f.Verify(); err == nil {
		t.Error("corrupted frame must fail verification")
	}
	short := Frame{ID: 1, Payload: []byte{1, 2}}
	if err := short.Verify(); err == nil {
		t.Error("short frame must fail verification")
	}
}

// TestPropertyFrameVerify: any single-byte flip in the body is caught.
func TestPropertyFrameVerify(t *testing.T) {
	f := func(id uint32, pos uint16, flip byte) bool {
		fr := GenerateFrame(id, 300)
		if flip == 0 {
			return fr.Verify() == nil
		}
		fr.Payload[8+int(pos)%300] ^= flip
		return fr.Verify() != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPlayerReassembly(t *testing.T) {
	pl := NewPlayer()
	f := GenerateFrame(1, 1000)
	// 256-byte fragments, delivered out of order.
	frags := fragment(f, 256)
	for i := len(frags) - 1; i >= 0; i-- { // reverse order
		if err := pl.Deliver(frags[i]); err != nil {
			t.Fatal(err)
		}
	}
	stats := pl.Finalize()
	if stats.FramesOK != 1 || stats.FramesCorrupted != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestPlayerCountsUndecodedPackets(t *testing.T) {
	pl := NewPlayer()
	_ = pl.Deliver(metasocket.Packet{
		Frame: 1, Index: 0, Count: 1,
		Enc:     []string{"des128"}, // ciphertext leaked to the player
		Payload: []byte("garbage"),
	})
	stats := pl.Finalize()
	if stats.PacketsUndecoded != 1 || stats.FramesCorrupted != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestPlayerCountsIncompleteFrames(t *testing.T) {
	pl := NewPlayer()
	_ = pl.Deliver(metasocket.Packet{Frame: 1, Index: 0, Count: 3, Payload: []byte("x")})
	stats := pl.Finalize()
	if stats.FramesIncomplete != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestPlayerReleasesFinishedFrames: a player that has judged 20,000 frames
// holds none of their payloads, its statistics are what they were when it
// kept them all, and a late duplicate of a judged frame is counted as
// delivered (and as undecoded when it is) without resurrecting the frame.
func TestPlayerReleasesFinishedFrames(t *testing.T) {
	const frames, frag = 20000, 256
	pl := NewPlayer()
	packets := 0
	for id := uint32(0); id < frames; id++ {
		for _, p := range fragment(GenerateFrame(id, 600), frag) {
			if err := pl.Deliver(p); err != nil {
				t.Fatal(err)
			}
			packets++
		}
	}
	for id, fa := range pl.frames {
		if fa != judged {
			t.Fatalf("frame %d still holds an assembly (%d bytes) after its verdict", id, len(fa.buf))
		}
	}
	assemblies := 0
	for fa := pl.free; fa != nil; fa = fa.next {
		assemblies++
	}
	if assemblies != 1 {
		t.Errorf("%d assemblies on the free list after an in-order stream, want the one it reused throughout", assemblies)
	}

	late := fragment(GenerateFrame(7, 600), frag)[1]
	if err := pl.Deliver(late); err != nil {
		t.Fatal(err)
	}
	late.Enc = []string{"des128"}
	if err := pl.Deliver(late); err != nil {
		t.Fatal(err)
	}
	if pl.frames[7] != judged {
		t.Error("a late duplicate resurrected a finished frame")
	}
	want := Stats{FramesOK: frames, PacketsDelivered: packets + 2, PacketsUndecoded: 1}
	if got := pl.Finalize(); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
}

// TestVideoPipelineEndToEnd reproduces Fig. 3's steady state: frames
// stream from the server through DES-64 encode, the multicast network,
// and per-client decode, arriving intact at both players.
func TestVideoPipelineEndToEnd(t *testing.T) {
	sys, err := NewSystem(SystemOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	const frames = 50
	ctx := context.Background()
	if err := sys.Server.Stream(ctx, frames, 2048, 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	hh := sys.Handheld.Player().Finalize()
	lp := sys.Laptop.Player().Finalize()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	for name, st := range map[string]Stats{"handheld": hh, "laptop": lp} {
		if st.FramesOK != frames {
			t.Errorf("%s frames OK = %d, want %d (stats %+v)", name, st.FramesOK, frames, st)
		}
		if st.FramesCorrupted != 0 || st.PacketsUndecoded != 0 {
			t.Errorf("%s corruption in steady state: %+v", name, st)
		}
	}
}

// TestVideoPipelineWithLatencyAndJitter: a non-ideal network still
// delivers intact frames (no loss configured, so only reordering by
// jitter is possible — which per-link ordered delivery prevents for equal
// latencies; this exercises the in-flight accounting).
func TestVideoPipelineWithLatency(t *testing.T) {
	sys, err := NewSystem(SystemOptions{
		Seed:     2,
		Handheld: netsim.LinkProfile{Latency: 2 * time.Millisecond},
		Laptop:   netsim.LinkProfile{Latency: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Server.Stream(context.Background(), 20, 1024, 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	hh := sys.Handheld.Player().Finalize()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if hh.FramesOK != 20 || hh.FramesCorrupted != 0 {
		t.Errorf("handheld stats: %+v", hh)
	}
}

func TestSenderFirstPhases(t *testing.T) {
	phases := SenderFirstPhases([]string{paper.ProcessHandheld, paper.ProcessServer, paper.ProcessLaptop})
	if len(phases) != 2 {
		t.Fatalf("phases = %v", phases)
	}
	if len(phases[0]) != 1 || phases[0][0] != paper.ProcessServer {
		t.Errorf("first phase = %v, want [server]", phases[0])
	}
	if len(phases[1]) != 2 {
		t.Errorf("second phase = %v", phases[1])
	}
	// Client-only step: the server is conscripted as phase 0 so the
	// client swaps on a drained link.
	only := SenderFirstPhases([]string{paper.ProcessHandheld})
	if len(only) != 2 || only[0][0] != paper.ProcessServer || only[1][0] != paper.ProcessHandheld {
		t.Errorf("client-only phases = %v", only)
	}
	// Server-only step: no order needed. nil means one simultaneous
	// phase (manager.Options.ResetPhases), so the manager sends the
	// planner's one-phase wave [[server]] (TestPaperResetWaves).
	if srvOnly := SenderFirstPhases([]string{paper.ProcessServer}); srvOnly != nil {
		t.Errorf("server-only phases = %v, want nil", srvOnly)
	}
}

func TestConfigurationOf(t *testing.T) {
	sys, err := NewSystem(SystemOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sys.Close() }()
	cfg := sys.ConfigurationOf()
	if got := cfg[paper.ProcessServer]; len(got) != 1 || got[0] != "E1" {
		t.Errorf("server chain = %v", got)
	}
	if got := cfg[paper.ProcessHandheld]; len(got) != 1 || got[0] != "D1" {
		t.Errorf("handheld chain = %v", got)
	}
	if got := cfg[paper.ProcessLaptop]; len(got) != 1 || got[0] != "D4" {
		t.Errorf("laptop chain = %v", got)
	}
	if _, err := sys.Client(paper.ProcessHandheld); err != nil {
		t.Error(err)
	}
	if _, err := sys.Client("server"); err == nil {
		t.Error("no client runs on the server")
	}
}

func TestFilterFactoryUnknown(t *testing.T) {
	if _, err := FilterFactory()("Z9"); err == nil {
		t.Error("unknown component must fail")
	}
}

// TestFilterFactoryMatchesDeclaration checks what the factory builds for
// each case-study component against the compiled declaration: its kind,
// the tag an encoder pushes, and the tags a decoder accepts.
func TestFilterFactoryMatchesDeclaration(t *testing.T) {
	c := paper.MustScenario()
	want := make(map[string]string)
	for name, tag := range c.Encodes {
		want[name] = "encoder " + tag
	}
	for name, tags := range c.Decodes {
		want[name] = "decoder " + strings.Join(tags, " ")
	}
	if len(want) != c.Registry.Len() {
		t.Fatalf("the declaration tags %d of %d components", len(want), c.Registry.Len())
	}
	factory := FilterFactory()
	for name, w := range want {
		f, err := factory(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.Name() != name {
			t.Errorf("%s: filter named %q", name, f.Name())
		}
		if got := describeFilter(t, f); got != w {
			t.Errorf("%s: factory builds %q, want %q", name, got, w)
		}
	}
}

// describeFilter renders a codec filter as its kind and tags: the tag an
// encoder pushes onto a plain packet, or the tags a decoder accepts.
func describeFilter(t *testing.T, f metasocket.Filter) string {
	t.Helper()
	switch f := f.(type) {
	case *metasocket.EncoderFilter:
		out, err := f.Process(nil, metasocket.Packet{Payload: []byte("x")})
		if err != nil || len(out) != 1 {
			t.Fatalf("%s: Process = %v, %v", f.Name(), out, err)
		}
		return "encoder " + out[0].TopEnc()
	case *metasocket.DecoderFilter:
		d := "decoder"
		for _, tag := range []string{"des64", "des128"} {
			if f.Accepts(tag) {
				d += " " + tag
			}
		}
		return d
	default:
		t.Fatalf("%s: unexpected filter %T", f.Name(), f)
		return ""
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer(nil, 256); err == nil {
		t.Error("nil socket should fail")
	}
	sock, err := metasocket.NewSendSocket(func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	if _, err := NewServer(sock, 4); err == nil {
		t.Error("tiny fragment size should fail")
	}
}

func TestStreamCancellation(t *testing.T) {
	sock, err := metasocket.NewSendSocket(func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	srv, err := NewServer(sock, 256)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	errCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		errCh <- srv.Stream(ctx, 0 /* unbounded */, 512, time.Millisecond)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	wg.Wait()
	if err := <-errCh; err != context.Canceled {
		t.Errorf("Stream = %v, want context.Canceled", err)
	}
	if srv.FramesSent() == 0 {
		t.Error("some frames should have been sent before cancellation")
	}
}
