// Package rtnet is the real-network data plane: UDP transport for the
// video stream, standing in for the paper's multicast sockets when the
// system runs over an actual network stack rather than the deterministic
// simulator (internal/netsim). The control plane (manager↔agent) already
// has its real-network implementation in internal/transport's TCP types;
// together they give the paper's full deployment shape — UDP data, TCP
// control — on real sockets.
//
// Multicast proper is often unavailable in sandboxes and containers, so
// the transmitter fans a datagram out to a fixed set of unicast
// addresses, which preserves the delivery semantics the safety machinery
// depends on (per-receiver independent delivery, possible loss, FIFO per
// flow on loopback).
package rtnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// maxDatagram bounds receive buffers; fragments are far smaller.
const maxDatagram = 64 * 1024

// quietWindow is how long the UDP socket must have been silent before the
// receiver vouches that nothing more is on its way. A datagram in the
// kernel's buffers or on the wire cannot be counted, unlike one in a
// simulated link, so after each arrival the receiver assumes for this
// long that another may follow. Loopback and LAN hand a sent datagram to
// a waiting reader within microseconds; 5 ms covers a scheduling hiccup
// of the read loop.
const quietWindow = 5 * time.Millisecond

// Transmitter sends each datagram to every configured receiver address.
type Transmitter struct {
	conn  *net.UDPConn
	addrs []*net.UDPAddr

	sent atomic.Uint64
}

// NewTransmitter opens a UDP socket and resolves the receiver addresses.
func NewTransmitter(addrs ...string) (*Transmitter, error) {
	if len(addrs) == 0 {
		return nil, errors.New("rtnet: transmitter needs at least one receiver address")
	}
	resolved := make([]*net.UDPAddr, len(addrs))
	for i, a := range addrs {
		ua, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			return nil, fmt.Errorf("rtnet: resolve %q: %w", a, err)
		}
		resolved[i] = ua
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("rtnet: open transmit socket: %w", err)
	}
	return &Transmitter{conn: conn, addrs: resolved}, nil
}

// Send fans the datagram out to every receiver. Partial write errors are
// returned but do not stop the fan-out (UDP loss is a modeled condition).
func (t *Transmitter) Send(d []byte) error {
	var firstErr error
	for _, addr := range t.addrs {
		if _, err := t.conn.WriteToUDP(d, addr); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("rtnet: send to %s: %w", addr, err)
		}
	}
	t.sent.Add(1)
	return firstErr
}

// Sent returns the number of datagrams transmitted.
func (t *Transmitter) Sent() uint64 { return t.sent.Load() }

// Close releases the socket.
func (t *Transmitter) Close() error { return t.conn.Close() }

// Receiver listens on a UDP port and delivers datagrams on a channel.
type Receiver struct {
	conn *net.UDPConn
	ch   chan []byte

	received atomic.Uint64
	dropped  atomic.Uint64

	// The drain ledger (see Owed), kept in step with the channel send.
	mu        sync.Mutex
	delivered uint64      // datagrams put on ch
	lastRead  time.Time   // when the socket last yielded a datagram
	quiet     *time.Timer // fires quietWindow after lastRead
	onRelease func()

	closeOnce sync.Once
	done      chan struct{}
}

// NewReceiver listens on addr (use "127.0.0.1:0" for an ephemeral port).
func NewReceiver(addr string, buffer int) (*Receiver, error) {
	if buffer <= 0 {
		buffer = 4096
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("rtnet: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("rtnet: listen %q: %w", addr, err)
	}
	// A generous kernel buffer absorbs bursts between reads.
	_ = conn.SetReadBuffer(4 * 1024 * 1024)
	r := &Receiver{
		conn: conn,
		ch:   make(chan []byte, buffer),
		done: make(chan struct{}),
	}
	go r.readLoop()
	return r, nil
}

// Addr returns the bound address, for transmitters to target.
func (r *Receiver) Addr() string { return r.conn.LocalAddr().String() }

// Recv returns the delivery channel; it closes when the receiver closes.
func (r *Receiver) Recv() <-chan []byte { return r.ch }

// Pending reports datagrams delivered to the channel but not yet taken
// off it. It sees neither the kernel's buffers nor a datagram the
// consumer has taken but not finished with; drain decisions use Owed
// (attach the receiver with metasocket.RecvSocket.AttachLink).
func (r *Receiver) Pending() int { return len(r.ch) }

// Owed implements metasocket.Link: the datagrams put on the channel so
// far, plus unread while the socket has not been quiet for quietWindow —
// standing for whatever may still be in kernel buffers, which cannot be
// counted. So a drain over real UDP is exact for everything in user
// space and waits out one quiet window for the rest.
func (r *Receiver) Owed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	owed := r.delivered
	if !r.lastRead.IsZero() && time.Since(r.lastRead) < quietWindow {
		owed += unread
	}
	return owed
}

// unread is more than a receiver processes in any wait: a drain to a
// watermark (metasocket.RecvSocket.WaitDrained) that takes its mark
// inside a window cannot reach it by processing what arrives, and ends,
// as it always has, when the socket has been quiet. A one would be met by
// the first datagram out of the kernel, whatever came behind it.
const unread = 1 << 32

// OnRelease implements metasocket.Link: fn is called, outside the
// receiver's lock, when a quiet window ends. Set it before traffic
// starts.
func (r *Receiver) OnRelease(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onRelease = fn
}

// quietElapsed runs quietWindow after the latest arrival.
func (r *Receiver) quietElapsed() {
	r.mu.Lock()
	fn := r.onRelease
	r.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// Stats returns how many datagrams were received and how many were
// dropped on channel overflow.
func (r *Receiver) Stats() (received, dropped uint64) {
	return r.received.Load(), r.dropped.Load()
}

// Close shuts the receiver down and closes the delivery channel.
func (r *Receiver) Close() error {
	var err error
	r.closeOnce.Do(func() {
		err = r.conn.Close()
		<-r.done // readLoop exits and closes ch
	})
	return err
}

func (r *Receiver) readLoop() {
	defer close(r.done)
	defer close(r.ch)
	buf := make([]byte, maxDatagram)
	for {
		n, _, err := r.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		d := make([]byte, n)
		copy(d, buf[:n])
		r.received.Add(1)
		r.mu.Lock()
		select {
		case r.ch <- d:
			r.delivered++
		default:
			r.dropped.Add(1) // receiver overrun, like real UDP
		}
		r.lastRead = time.Now()
		if r.quiet == nil {
			r.quiet = time.AfterFunc(quietWindow, r.quietElapsed)
		} else {
			r.quiet.Reset(quietWindow)
		}
		r.mu.Unlock()
	}
}
