package adapters

import (
	"context"

	"repro/internal/metasocket"
	"repro/internal/tlogic"
)

// NewMonitoredRecvProcess adapts a receiving MetaSocket whose safe state
// is *derived* from a temporal specification instead of hand-identified —
// the paper's future-work proposal (Sec. 7). The monitor's obligations
// define when the process may be blocked: Reset waits for the link to
// drain (the global safe condition, as usual) and then blocks at a packet
// boundary where every obligation of the specification is fulfilled.
//
// Feeding the monitor is the application's job (wire socket observers to
// Monitor.Observe); typical specifications correlate per packet
// ("after recv expect deliver") or per frame ("after frame-begin expect
// frame-end"), giving segment- or frame-granular safe states without
// writing detection code.
func NewMonitoredRecvProcess(process string, sock *metasocket.RecvSocket, factory FilterFactory, mon *tlogic.Monitor) *SocketProcess {
	return &SocketProcess{
		process: process,
		host:    monitoredSocket{sock, mon},
		factory: factory,
		drain:   sock.WaitDrained,
	}
}

// monitoredSocket blocks only where its monitor is safe.
type monitoredSocket struct {
	*metasocket.RecvSocket
	mon *tlogic.Monitor
}

// RequestBlock decides safety at the boundary the block lands on: under a
// streaming sender a packet that opens an obligation can arrive between the
// monitor turning safe and the socket blocking, and only a blocked socket's
// monitor stands still. Not safe then, the socket runs on and tries again.
func (s monitoredSocket) RequestBlock(ctx context.Context) error {
	for {
		if err := s.mon.WaitSafe(ctx); err != nil {
			return err
		}
		if err := s.RecvSocket.RequestBlock(ctx); err != nil || s.mon.Safe() {
			return err
		}
		s.Unblock()
	}
}

// MonitorFrames wires frame-granularity obligations onto a receive
// socket: the first fragment of a frame opens an obligation that the last
// fragment discharges, so the derived safe state never splits a frame
// across an adaptation. Call before traffic starts; the returned monitor
// is ready to pass to NewMonitoredRecvProcess.
func MonitorFrames(sock *metasocket.RecvSocket) *tlogic.Monitor {
	mon := tlogic.MustMonitor("after frame-begin expect frame-end")
	sock.SetDeliveryObserver(func(p metasocket.Packet) {
		if p.Count <= 1 {
			return // single-fragment frames are atomic already
		}
		switch p.Index {
		case 0:
			mon.Observe("frame-begin", uint64(p.Frame))
		case p.Count - 1:
			mon.Observe("frame-end", uint64(p.Frame))
		}
	})
	return mon
}
