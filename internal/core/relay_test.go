package core_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/adapters"
	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/metasocket"
	"repro/internal/model"
	"repro/internal/netsim"
)

// tagFilter stamps packets with a version tag; the sink counts which
// versions it sees and flags mixed-epoch packets (a v2-stamped packet
// validated by the v1 validator or vice versa would corrupt).
type tagFilter struct {
	name string
	tag  string
}

func (f *tagFilter) Name() string { return f.name }

func (f *tagFilter) Process(dst []metasocket.Packet, p metasocket.Packet) ([]metasocket.Packet, error) {
	return append(dst, p.PushEnc(f.tag, p.Payload)), nil
}

// untagFilter strips a specific version tag; anything else is an error —
// the relay's two sides must always run matching versions.
type untagFilter struct {
	name string
	tag  string
	bad  *atomic.Uint64
}

func (f *untagFilter) Name() string { return f.name }

func (f *untagFilter) Process(dst []metasocket.Packet, p metasocket.Packet) ([]metasocket.Packet, error) {
	if p.TopEnc() != f.tag {
		f.bad.Add(1)
		return append(dst, p), nil // pass through, counted as corruption
	}
	return append(dst, p.PopEnc(p.Payload)), nil
}

// TestRelayCompositeEndToEnd runs a src → relay → sink pipeline where the
// relay hosts components on BOTH of its sockets (untag on the upstream
// receive side, retag on the downstream send side), and upgrades both
// atomically (v1 → v2) through the full protocol while traffic flows.
// The invariant ties the versions together; a mixed-epoch packet would be
// counted as corruption by the sink-side validator.
func TestRelayCompositeEndToEnd(t *testing.T) {
	var mixedAtRelay, mixedAtSink, delivered atomic.Uint64

	// Network: src -> relay (link A), relay -> sink (link B).
	linkA := netsim.NewGroup(1)
	linkB := netsim.NewGroup(2)
	relaySub, err := linkA.Subscribe("relay", netsim.LinkProfile{Latency: time.Millisecond}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	sinkSub, err := linkB.Subscribe("sink", netsim.LinkProfile{Latency: time.Millisecond}, 1024)
	if err != nil {
		t.Fatal(err)
	}

	// Source: stamps v1 (not adaptive in this scenario; the source's
	// filter is swapped by the same compound action through a send-socket
	// process of its own).
	srcSock, err := metasocket.NewSendSocket(func(d []byte) error { return linkA.Send(d) },
		&tagFilter{name: "SrcV1", tag: "v1"})
	if err != nil {
		t.Fatal(err)
	}

	// Relay: upstream recv socket strips the tag, downstream send socket
	// re-stamps it.
	relaySend, err := metasocket.NewSendSocket(func(d []byte) error { return linkB.Send(d) },
		&tagFilter{name: "RelayTagV1", tag: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	relayRecv, err := metasocket.NewRecvSocket(func(p metasocket.Packet) error {
		return relaySend.Send(p)
	}, &untagFilter{name: "RelayUntagV1", tag: "v1", bad: &mixedAtRelay})
	if err != nil {
		t.Fatal(err)
	}
	relayRecv.AttachLink(relaySub)

	// Sink: validates the tag.
	sinkSock, err := metasocket.NewRecvSocket(func(p metasocket.Packet) error {
		delivered.Add(1)
		return nil
	}, &untagFilter{name: "SinkV1", tag: "v1", bad: &mixedAtSink})
	if err != nil {
		t.Fatal(err)
	}
	sinkSock.AttachLink(sinkSub)

	if err := relayRecv.Start(relaySub.Recv()); err != nil {
		t.Fatal(err)
	}
	if err := sinkSock.Start(sinkSub.Recv()); err != nil {
		t.Fatal(err)
	}

	// Adaptive system description: versions across three processes.
	reg := model.MustRegistry(
		model.Component{Name: "SrcV1", Process: "src"},
		model.Component{Name: "SrcV2", Process: "src"},
		model.Component{Name: "RelayUntagV1", Process: "relay"},
		model.Component{Name: "RelayUntagV2", Process: "relay"},
		model.Component{Name: "RelayTagV1", Process: "relay"},
		model.Component{Name: "RelayTagV2", Process: "relay"},
		model.Component{Name: "SinkV1", Process: "sink"},
		model.Component{Name: "SinkV2", Process: "sink"},
	)
	mk := func(name, pred string) invariant.Invariant {
		inv, err := invariant.NewStructural(name, pred)
		if err != nil {
			t.Fatal(err)
		}
		return inv
	}
	set, err := invariant.NewSet(reg,
		mk("src", "oneof(SrcV1, SrcV2)"),
		mk("untag", "oneof(RelayUntagV1, RelayUntagV2)"),
		mk("tag", "oneof(RelayTagV1, RelayTagV2)"),
		mk("sink", "oneof(SinkV1, SinkV2)"),
		// Version coherence: all four stages run the same version.
		mk("coherent-src", "SrcV2 -> RelayUntagV2"),
		mk("coherent-relay", "RelayUntagV2 -> RelayTagV2"),
		mk("coherent-tag", "RelayTagV2 -> SinkV2"),
		mk("coherent-back", "SinkV2 -> SrcV2"),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Coherence forces the whole upgrade into one compound action.
	upgrade := action.MustNew("Upgrade",
		"(SrcV1, RelayUntagV1, RelayTagV1, SinkV1) -> (SrcV2, RelayUntagV2, RelayTagV2, SinkV2)",
		40*time.Millisecond, "atomic pipeline-wide version upgrade")

	factory := func(name string) (metasocket.Filter, error) {
		switch name {
		case "SrcV2":
			return &tagFilter{name: name, tag: "v2"}, nil
		case "RelayUntagV2":
			return &untagFilter{name: name, tag: "v2", bad: &mixedAtRelay}, nil
		case "RelayTagV2":
			return &tagFilter{name: name, tag: "v2"}, nil
		case "SinkV2":
			return &untagFilter{name: name, tag: "v2", bad: &mixedAtSink}, nil
		default:
			return nil, fmt.Errorf("unknown component %q", name)
		}
	}
	relayComposite, err := adapters.NewCompositeProcess(
		adapters.Part{
			Proc:       adapters.NewRecvProcess("relay", relayRecv, factory),
			Components: []string{"RelayUntagV1", "RelayUntagV2"},
		},
		adapters.Part{
			Proc:       adapters.NewSendProcess("relay", relaySend, factory),
			Components: []string{"RelayTagV1", "RelayTagV2"},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	procs := map[string]agent.LocalProcess{
		"src":   adapters.NewSendProcess("src", srcSock, factory),
		"relay": relayComposite,
		"sink":  adapters.NewRecvProcess("sink", sinkSock, factory),
	}
	dep, err := core.NewDeployment(set, []action.Action{upgrade}, procs, core.Options{
		StepTimeout: 5 * time.Second,
		ResetPhases: func(_ action.Action, participants []string) [][]string {
			return [][]string{{"src"}, {"relay"}, {"sink"}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	// Traffic: send packets continuously from the source.
	stop := make(chan struct{})
	trafficDone := make(chan struct{})
	go func() {
		defer close(trafficDone)
		var i uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = srcSock.Send(metasocket.Packet{Frame: uint32(i), Count: 1, Payload: []byte("data")})
			i++
			time.Sleep(150 * time.Microsecond)
		}
	}()
	time.Sleep(15 * time.Millisecond)

	src := reg.MustConfigOf("SrcV1", "RelayUntagV1", "RelayTagV1", "SinkV1")
	tgt := reg.MustConfigOf("SrcV2", "RelayUntagV2", "RelayTagV2", "SinkV2")
	res, err := dep.Adapt(src, tgt)
	if err != nil || !res.Completed {
		t.Fatalf("adapt: %v %+v", err, res)
	}

	time.Sleep(15 * time.Millisecond)
	close(stop)
	<-trafficDone
	// Drain the pipeline end to end, upstream first.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, sock := range []*metasocket.RecvSocket{relayRecv, sinkSock} {
		if err := sock.WaitDrained(ctx); err != nil {
			t.Fatal(err)
		}
	}

	if got := relayRecv.Filters(); got[0] != "RelayUntagV2" {
		t.Errorf("relay recv chain = %v", got)
	}
	if got := relaySend.Filters(); got[0] != "RelayTagV2" {
		t.Errorf("relay send chain = %v", got)
	}
	if mixedAtRelay.Load() != 0 || mixedAtSink.Load() != 0 {
		t.Errorf("mixed-epoch packets: relay %d, sink %d", mixedAtRelay.Load(), mixedAtSink.Load())
	}
	if delivered.Load() == 0 {
		t.Error("no traffic delivered")
	}

	_ = linkA.Close()
	_ = linkB.Close()
	relayRecv.Wait()
	sinkSock.Wait()
	srcSock.Close()
	relaySend.Close()
}
