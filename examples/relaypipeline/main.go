// Relaypipeline: atomically upgrading every stage of a src → relay → sink
// pipeline while traffic flows, where the relay hosts adaptive components
// on BOTH of its sockets (the upstream receive side and the downstream
// send side).
//
// Each stage stamps/validates a protocol version tag. Version-coherence
// invariants (SrcV2 -> RelayUntagV2 -> RelayTagV2 -> SinkV2 -> SrcV2)
// force the upgrade into one compound adaptive action across all three
// processes. The relay's agent drives a CompositeProcess: its receive
// socket quiesces before its send socket, and they resume in reverse, so
// no packet ever crosses the relay half-upgraded.
//
// Run with: go run ./examples/relaypipeline
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	safeadapt "repro"
	"repro/internal/adapters"
	"repro/internal/metasocket"
	"repro/internal/netsim"
)

// stamp tags packets with a protocol version.
type stamp struct {
	name, tag string
}

func (f *stamp) Name() string { return f.name }

func (f *stamp) Process(dst []metasocket.Packet, p metasocket.Packet) ([]metasocket.Packet, error) {
	return append(dst, p.PushEnc(f.tag, p.Payload)), nil
}

// check strips a specific version tag and counts mismatches.
type check struct {
	name, tag string
	bad       *atomic.Uint64
}

func (f *check) Name() string { return f.name }

func (f *check) Process(dst []metasocket.Packet, p metasocket.Packet) ([]metasocket.Packet, error) {
	if p.TopEnc() != f.tag {
		f.bad.Add(1)
		return append(dst, p), nil
	}
	return append(dst, p.PopEnc(p.Payload)), nil
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sys, err := safeadapt.FromJSON([]byte(`{
		"name": "pipeline-upgrade",
		"components": [
			{"name": "SrcV1",        "process": "src"},
			{"name": "SrcV2",        "process": "src"},
			{"name": "RelayUntagV1", "process": "relay"},
			{"name": "RelayUntagV2", "process": "relay"},
			{"name": "RelayTagV1",   "process": "relay"},
			{"name": "RelayTagV2",   "process": "relay"},
			{"name": "SinkV1",       "process": "sink"},
			{"name": "SinkV2",       "process": "sink"}
		],
		"invariants": [
			{"name": "src",   "kind": "structural", "predicate": "oneof(SrcV1, SrcV2)"},
			{"name": "untag", "kind": "structural", "predicate": "oneof(RelayUntagV1, RelayUntagV2)"},
			{"name": "tag",   "kind": "structural", "predicate": "oneof(RelayTagV1, RelayTagV2)"},
			{"name": "sink",  "kind": "structural", "predicate": "oneof(SinkV1, SinkV2)"},
			{"name": "c1", "predicate": "SrcV2 -> RelayUntagV2"},
			{"name": "c2", "predicate": "RelayUntagV2 -> RelayTagV2"},
			{"name": "c3", "predicate": "RelayTagV2 -> SinkV2"},
			{"name": "c4", "predicate": "SinkV2 -> SrcV2"},
			{"name": "c5", "predicate": "RelayUntagV1 -> SrcV1"}
		],
		"actions": [
			{"id": "Upgrade",
			 "operation": "(SrcV1, RelayUntagV1, RelayTagV1, SinkV1) -> (SrcV2, RelayUntagV2, RelayTagV2, SinkV2)",
			 "costMillis": 40, "description": "atomic pipeline-wide upgrade"}
		],
		"source": ["SrcV1", "RelayUntagV1", "RelayTagV1", "SinkV1"],
		"target": ["SrcV2", "RelayUntagV2", "RelayTagV2", "SinkV2"],
		"dataflow": ["src", "relay"]
	}`))
	if err != nil {
		return err
	}
	path, err := sys.PlanRequest()
	if err != nil {
		return err
	}
	fmt.Println("plan:", path)

	var mixed, delivered atomic.Uint64

	// Two hops of simulated network.
	linkA, linkB := netsim.NewGroup(1), netsim.NewGroup(2)
	relaySub, err := linkA.Subscribe("relay", netsim.LinkProfile{Latency: time.Millisecond}, 1024)
	if err != nil {
		return err
	}
	sinkSub, err := linkB.Subscribe("sink", netsim.LinkProfile{Latency: time.Millisecond}, 1024)
	if err != nil {
		return err
	}

	srcSock, err := metasocket.NewSendSocket(func(d []byte) error { return linkA.Send(d) },
		&stamp{name: "SrcV1", tag: "v1"})
	if err != nil {
		return err
	}
	relaySend, err := metasocket.NewSendSocket(func(d []byte) error { return linkB.Send(d) },
		&stamp{name: "RelayTagV1", tag: "v1"})
	if err != nil {
		return err
	}
	relayRecv, err := metasocket.NewRecvSocket(func(p metasocket.Packet) error {
		return relaySend.Send(p)
	}, &check{name: "RelayUntagV1", tag: "v1", bad: &mixed})
	if err != nil {
		return err
	}
	relayRecv.AttachLink(relaySub)
	sinkSock, err := metasocket.NewRecvSocket(func(p metasocket.Packet) error {
		delivered.Add(1)
		return nil
	}, &check{name: "SinkV1", tag: "v1", bad: &mixed})
	if err != nil {
		return err
	}
	sinkSock.AttachLink(sinkSub)

	if err := relayRecv.Start(relaySub.Recv()); err != nil {
		return err
	}
	if err := sinkSock.Start(sinkSub.Recv()); err != nil {
		return err
	}

	factory := func(name string) (metasocket.Filter, error) {
		switch name {
		case "SrcV2":
			return &stamp{name: name, tag: "v2"}, nil
		case "RelayUntagV2":
			return &check{name: name, tag: "v2", bad: &mixed}, nil
		case "RelayTagV2":
			return &stamp{name: name, tag: "v2"}, nil
		case "SinkV2":
			return &check{name: name, tag: "v2", bad: &mixed}, nil
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
		return err
	}
	procs := map[string]safeadapt.LocalProcess{
		"src":   adapters.NewSendProcess("src", srcSock, factory),
		"relay": relayComposite,
		"sink":  adapters.NewRecvProcess("sink", sinkSock, factory),
	}
	dep, err := sys.Deploy(procs, safeadapt.DeployOptions{StepTimeout: 5 * time.Second})
	if err != nil {
		return err
	}
	defer dep.Close()

	// Traffic.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var i uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = srcSock.Send(metasocket.Packet{Frame: uint32(i), Count: 1, Payload: []byte("payload")})
			i++
			time.Sleep(200 * time.Microsecond)
		}
	}()
	time.Sleep(15 * time.Millisecond)

	res, err := dep.Adapt(sys.Source(), sys.Target())
	if err != nil {
		return err
	}
	fmt.Printf("adaptation completed: %v (%d step)\n", res.Completed, len(res.Steps))
	time.Sleep(15 * time.Millisecond)
	close(stop)
	<-done

	time.Sleep(20 * time.Millisecond) // drain the two hops
	fmt.Printf("relay chains: recv=%v send=%v\n", relayRecv.Filters(), relaySend.Filters())
	fmt.Printf("delivered=%d mixed-version packets=%d\n", delivered.Load(), mixed.Load())

	_ = linkA.Close()
	_ = linkB.Close()
	relayRecv.Wait()
	sinkSock.Wait()
	srcSock.Close()
	relaySend.Close()
	if n := mixed.Load(); n > 0 {
		return fmt.Errorf("unsafe: %d packets crossed the pipeline half-upgraded", n)
	}
	fmt.Println("safe: no packet ever crossed the pipeline half-upgraded")
	return nil
}
