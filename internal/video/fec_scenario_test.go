package video

import (
	"context"
	"fmt"
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

// fecRig is a one-server/one-client system on a lossy link whose FEC
// protection can be inserted at run time.
type fecRig struct {
	group  *netsim.Group
	sub    *netsim.Subscription
	server *Server
	client *Client
	fecDec *metasocket.FECDecoderFilter
}

const fecGroupSize = 3

func newFECRig(t *testing.T, seed int64, loss float64) *fecRig {
	t.Helper()
	group := netsim.NewGroup(seed)
	sub, err := group.Subscribe("client", netsim.LinkProfile{
		Latency:  time.Millisecond,
		LossRate: loss,
	}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	c64 := cipherkit.MustDefault64()
	sendSock, err := metasocket.NewSendSocket(func(d []byte) error { return group.Send(d) },
		metasocket.NewEncoder("E1", c64))
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(sendSock, 256)
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
	return &fecRig{group: group, sub: sub, server: server, client: client}
}

func (r *fecRig) close(t *testing.T) Stats {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.client.Socket().WaitDrained(ctx); err != nil {
		t.Fatal(err)
	}
	stats := r.client.Player().Finalize()
	_ = r.group.Close()
	r.client.Socket().Wait()
	r.server.Socket().Close()
	return stats
}

// factory builds the rig's adaptive components; the FEC decoder instance
// is captured so the test can read its recovery counters.
func (r *fecRig) factory() adapters.FilterFactory {
	return func(name string) (metasocket.Filter, error) {
		switch name {
		case "FE":
			return metasocket.NewFECEncoder("FE", fecGroupSize)
		case "GD":
			dec, err := metasocket.NewFECDecoder("GD", fecGroupSize)
			if err != nil {
				return nil, err
			}
			r.fecDec = dec
			return dec, nil
		default:
			return nil, fmt.Errorf("unknown component %q", name)
		}
	}
}

// TestFECInsertionRecoversLosses streams over a 12%-lossy link, inserts
// an FEC encoder/decoder pair mid-stream through the safe adaptation
// process (the dependency invariant FE -> GD forces the decoder in
// first), and verifies (a) the adaptation is clean, (b) the decoder
// reconstructs lost packets, and (c) protected delivery beats the
// unprotected control run on the same seed.
func TestFECInsertionRecoversLosses(t *testing.T) {
	const (
		seed   = 77
		loss   = 0.12
		frames = 300
	)

	// Control: same traffic, no adaptation.
	control := newFECRig(t, seed, loss)
	if err := control.server.Stream(context.Background(), frames, 1024, 200*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	controlStats := control.close(t)
	if controlStats.FramesIncomplete == 0 {
		t.Fatalf("control run lost nothing; loss injection broken (stats %+v)", controlStats)
	}

	// Experiment: adapt mid-stream to insert FEC.
	rig := newFECRig(t, seed, loss)
	reg := model.MustRegistry(
		model.Component{Name: "FE", Process: "server", Description: "FEC parity encoder"},
		model.Component{Name: "GD", Process: "client", Description: "FEC parity decoder"},
	)
	dep, err := invariant.NewDependency("fec-pairing", "FE -> GD")
	if err != nil {
		t.Fatal(err)
	}
	invs, err := invariant.NewSet(reg, dep)
	if err != nil {
		t.Fatal(err)
	}
	actions := []action.Action{
		action.MustNew("InsGD", "+GD", 5*time.Millisecond, "insert FEC decoder"),
		action.MustNew("InsFE", "+FE", 5*time.Millisecond, "insert FEC encoder"),
	}
	factory := rig.factory()
	procs := map[string]agent.LocalProcess{
		"server": adapters.NewSendProcess("server", rig.server.Socket(), factory),
		"client": adapters.NewRecvProcess("client", rig.client.Socket(), factory),
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

	streamErr := make(chan error, 1)
	go func() {
		streamErr <- rig.server.Stream(context.Background(), frames, 1024, 200*time.Microsecond)
	}()
	for rig.server.FramesSent() < 60 {
		time.Sleep(time.Millisecond)
	}

	source := model.Config(0) // neither FEC component composed
	target := reg.MustConfigOf("FE", "GD")
	res, err := deployment.Adapt(source, target)
	if err != nil || !res.Completed {
		t.Fatalf("adapt: %v %+v", err, res)
	}
	// The invariant must have ordered the decoder in first.
	if got := res.Path.ActionIDs(); len(got) != 2 || got[0] != "InsGD" || got[1] != "InsFE" {
		t.Errorf("path = %v, want [InsGD InsFE]", got)
	}

	if err := <-streamErr; err != nil {
		t.Fatal(err)
	}
	stats := rig.close(t)

	// Chains recomposed as planned: FEC encoder after DES encoder on the
	// sender, FEC decoder at the FRONT of the receiver.
	if got := rig.server.Socket().Filters(); len(got) != 2 || got[0] != "E1" || got[1] != "FE" {
		t.Errorf("server chain = %v, want [E1 FE]", got)
	}
	if got := rig.client.Socket().Filters(); len(got) != 2 || got[0] != "GD" || got[1] != "D1" {
		t.Errorf("client chain = %v, want [GD D1]", got)
	}

	if stats.PacketsUndecoded != 0 || stats.FramesCorrupted != 0 {
		t.Errorf("corruption after FEC insertion: %+v", stats)
	}
	if rig.fecDec == nil || rig.fecDec.Recovered == 0 {
		t.Errorf("FEC decoder recovered nothing (decoder %+v)", rig.fecDec)
	}
	if stats.FramesOK <= controlStats.FramesOK {
		t.Errorf("FEC run framesOK=%d should beat control framesOK=%d (recovered %d)",
			stats.FramesOK, controlStats.FramesOK, rig.fecDec.Recovered)
	}
	t.Logf("control: %d/%d frames OK; with mid-stream FEC insertion: %d/%d (recovered %d packets)",
		controlStats.FramesOK, frames, stats.FramesOK, frames, rig.fecDec.Recovered)
}
