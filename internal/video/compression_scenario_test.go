package video

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/adapters"
	"repro/internal/agent"
	"repro/internal/cipherkit"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/metasocket"
	"repro/internal/model"
	"repro/internal/netsim"
)

// TestCompressionInsertionMidStream inserts a compression/decompression
// filter pair into a running encrypted stream — the third filter kind the
// paper names (after encryption and FEC). The dependency invariant
// CX -> DX forces the decompressor in first (its bypass makes that safe),
// and chain order matters: the compressor must sit BEFORE the encoder on
// the send side (ciphertext doesn't compress), i.e. at the chain front,
// which the placement hint provides; the decompressor runs after the
// decoder on the receive side (appended).
func TestCompressionInsertionMidStream(t *testing.T) {
	var bytesOnWire atomic.Uint64

	group := netsim.NewGroup(5)
	sub, err := group.Subscribe("client", netsim.LinkProfile{Latency: time.Millisecond}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	c64 := cipherkit.MustDefault64()
	sendSock, err := metasocket.NewSendSocket(func(d []byte) error {
		bytesOnWire.Add(uint64(len(d)))
		return group.Send(d)
	}, metasocket.NewEncoder("E1", c64))
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(sendSock, 512)
	if err != nil {
		t.Fatal(err)
	}
	client, err := BuildClient("client", metasocket.NewDecoder("D1", c64))
	if err != nil {
		t.Fatal(err)
	}
	client.Socket().AttachLink(sub)
	if err := client.Socket().Start(sub.Recv()); err != nil {
		t.Fatal(err)
	}

	reg := model.MustRegistry(
		model.Component{Name: "CX", Process: "server", Description: "flate compressor"},
		model.Component{Name: "DX", Process: "client", Description: "flate decompressor"},
	)
	dep, err := invariant.NewDependency("pairing", "CX -> DX")
	if err != nil {
		t.Fatal(err)
	}
	invs, err := invariant.NewSet(reg, dep)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(name string) (metasocket.Filter, error) {
		switch name {
		case "CX":
			return frontCompress{metasocket.NewCompress("CX")}, nil
		case "DX":
			return metasocket.NewDecompress("DX"), nil
		default:
			return nil, fmt.Errorf("unknown component %q", name)
		}
	}
	actions := []action.Action{
		action.MustNew("InsDX", "+DX", 5*time.Millisecond, "insert decompressor"),
		action.MustNew("InsCX", "+CX", 5*time.Millisecond, "insert compressor"),
	}
	procs := map[string]agent.LocalProcess{
		"server": adapters.NewSendProcess("server", sendSock, factory),
		"client": adapters.NewRecvProcess("client", client.Socket(), factory),
	}
	deployment, err := core.NewDeployment(invs, actions, procs, core.Options{
		StepTimeout: 5 * time.Second,
		ResetPhases: func(_ action.Action, participants []string) [][]string {
			return [][]string{{"server"}, {"client"}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer deployment.Close()

	// Highly compressible frames: the default generator's xorshift
	// bodies are incompressible by design, so build frames with
	// repetitive bodies (like real video's flat regions) by hand.
	compressibleFrame := func(id uint32) Frame {
		body := bytes.Repeat([]byte("SCENE"), 410) // 2050 bytes
		h := fnv.New64a()
		_, _ = h.Write(body)
		payload := make([]byte, 8+len(body))
		binary.BigEndian.PutUint64(payload[:8], h.Sum64())
		copy(payload[8:], body)
		return Frame{ID: id, Payload: payload}
	}
	const frames = 120
	streamErr := make(chan error, 1)
	go func() {
		for i := uint32(0); i < frames; i++ {
			if err := server.SendFrame(compressibleFrame(i)); err != nil {
				streamErr <- err
				return
			}
			time.Sleep(300 * time.Microsecond)
		}
		streamErr <- nil
	}()
	for server.FramesSent() < 40 {
		time.Sleep(time.Millisecond)
	}
	preBytes := bytesOnWire.Load()
	preFrames := server.FramesSent()

	res, err := deployment.Adapt(model.Config(0), reg.MustConfigOf("CX", "DX"))
	if err != nil || !res.Completed {
		t.Fatalf("adapt: %v %+v", err, res)
	}
	if got := res.Path.ActionIDs(); len(got) != 2 || got[0] != "InsDX" || got[1] != "InsCX" {
		t.Errorf("path = %v, want decompressor first", got)
	}

	if err := <-streamErr; err != nil {
		t.Fatal(err)
	}
	if err := client.Socket().WaitDrained(contextWith(t, 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	stats := client.Player().Finalize()
	if stats.FramesOK != frames || stats.FramesCorrupted != 0 || stats.PacketsUndecoded != 0 {
		t.Errorf("stats: %+v", stats)
	}

	// The compressor must sit at the FRONT of the send chain (before the
	// encoder), the decompressor AFTER the decoder on the receive side.
	if got := sendSock.Filters(); len(got) != 2 || got[0] != "CX" || got[1] != "E1" {
		t.Errorf("send chain = %v, want [CX E1]", got)
	}
	if got := client.Socket().Filters(); len(got) != 2 || got[0] != "D1" || got[1] != "DX" {
		t.Errorf("recv chain = %v, want [D1 DX]", got)
	}

	// Wire bytes per frame must drop substantially: the repetitive bodies
	// deflate well, so require at least a 3x reduction.
	postBytes := bytesOnWire.Load() - preBytes
	postFrames := uint64(server.FramesSent() - preFrames)
	preRate := float64(preBytes) / float64(preFrames)
	postRate := float64(postBytes) / float64(postFrames)
	if postRate*3 >= preRate {
		t.Errorf("bytes/frame did not drop 3x: before %.0f, after %.0f", preRate, postRate)
	}
	t.Logf("bytes/frame: before %.0f, after %.0f", preRate, postRate)

	_ = group.Close()
	client.Socket().Wait()
	sendSock.Close()
}

// frontCompress gives the compressor a chain-front placement hint so it
// runs before the encoder.
type frontCompress struct {
	*metasocket.CompressFilter
}

func (frontCompress) PreferFront() bool { return true }

func contextWith(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}
