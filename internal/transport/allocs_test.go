//go:build !race

// Under the race detector sync.Pool drops items at random, so allocation
// counts of WriteFrame's pooled path mean nothing.

package transport

import (
	"io"
	"net"
	"testing"

	"repro/internal/protocol"
)

// TestSendBatchFlatWaveAllocs: a wave to directly registered names on
// distinct connections costs what its frames cost to encode and nothing
// for the batching machinery.
func TestSendBatchFlatWaveAllocs(t *testing.T) {
	hub := tcpHub(t)
	names := []string{"f0", "f1", "f2"}
	wave := make([]protocol.Message, len(names))
	for i, n := range names {
		// AllocsPerRun counts the whole process, so the far ends are raw
		// connections drained without decoding.
		go func(conn net.Conn) { _, _ = io.Copy(io.Discard, conn) }(rawStream(t, hub, n))
		wave[i] = protocol.Message{Type: protocol.MsgReset, From: protocol.ManagerName, To: n, Step: protocol.Step{ActionID: "A2", Attempt: 1}}
	}
	perFrame := testing.AllocsPerRun(100, func() { _ = protocol.WriteFrame(io.Discard, wave[0]) })
	got := testing.AllocsPerRun(100, func() {
		if err := hub.SendBatch(wave); err != nil {
			t.Fatal(err)
		}
	})
	if want := perFrame * float64(len(wave)); got != want {
		t.Fatalf("SendBatch of %d direct targets: %v allocs, want %v (%v per WriteFrame)", len(wave), got, want, perFrame)
	}
}
