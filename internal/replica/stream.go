package replica

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/protocol"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// The replication stream reuses the journal's wire discipline: each frame
// is [4-byte big-endian length][4-byte CRC32-IEEE of body][body]. A frame
// is in the stream iff its checksum verifies, so a torn TCP tail is
// indistinguishable from a torn file tail and handled the same way —
// dropped, never interpreted.
//
// A body is one type byte followed by every field of frame in declaration
// order (in protocol/wire.go's primitives: strings and counts
// length-prefixed, integers as varints), and the
// records of a snapshot or records frame travel as the journal's own
// frames (journal.AppendFrame), each under its own checksum: what the
// standby decodes is byte for byte what the leader's file holds.

// frameType tags a replication frame.
type frameType byte

const (
	// frameHello is the standby's registration (name + election rank).
	frameHello frameType = iota + 1
	// frameSnapshot carries the leader's full durable log on attach.
	frameSnapshot
	// frameRecords carries one committed batch; the standby must apply it
	// durably and answer with a frameAck echoing Batch.
	frameRecords
	// frameAck acknowledges a records batch (standby → leader).
	frameAck
	// frameLease renews the leader's lease; TTLMillis announces the
	// horizon after which a standby that heard nothing may take over.
	frameLease
	// frameDetach tells the standby it was dropped (or the leader is
	// closing cleanly); a detached standby must not take over.
	frameDetach
)

// frame is one replication-stream message.
type frame struct {
	Type      frameType
	Name      string
	Rank      int
	Batch     uint64
	TTLMillis int64
	Reason    string
	Recs      []journal.Record
}

const (
	frameHeader  = 8
	maxFrameBody = 1 << 24
)

// appendFrame appends f's frame to dst.
func appendFrame(dst []byte, f frame) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, byte(f.Type))
	dst = protocol.AppendString(dst, f.Name)
	dst = binary.AppendVarint(dst, int64(f.Rank))
	dst = binary.AppendUvarint(dst, f.Batch)
	dst = binary.AppendVarint(dst, f.TTLMillis)
	dst = protocol.AppendString(dst, f.Reason)
	dst = binary.AppendUvarint(dst, uint64(len(f.Recs)))
	for _, rec := range f.Recs {
		dst = journal.AppendFrame(dst, rec)
	}
	body := dst[start+frameHeader:]
	if len(body) > maxFrameBody {
		return dst[:start], fmt.Errorf("replica: frame too large (%d bytes)", len(body))
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(body))
	return dst, nil
}

// frameWriter sends frames down one connection, each encoded once into a
// reused buffer and handed to the connection in one Write.
type frameWriter struct {
	mu  sync.Mutex // serializes records/lease/detach frames
	w   io.Writer
	buf []byte
}

// write sends one frame and returns its size on the wire.
func (fw *frameWriter) write(f frame) (int, error) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	buf, err := appendFrame(fw.buf[:0], f)
	fw.buf = buf[:0]
	if err != nil {
		return 0, err
	}
	if _, err := fw.w.Write(buf); err != nil {
		return 0, fmt.Errorf("replica: write: %w", err)
	}
	return len(buf), nil
}

// frameReader reads frames from one connection through one buffered
// reader, one reused body buffer, one reused record slice and one
// Interner: the records of a round repeat a handful of names and one step,
// which the standby materialises once.
type frameReader struct {
	r    *bufio.Reader
	hdr  [frameHeader]byte
	body []byte
	recs []journal.Record
	in   protocol.Interner
}

// maxKeptRecs is the most records a frameReader keeps room for between
// frames: a commit's batch fits, and a snapshot's slice is let go.
const maxKeptRecs = 32

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReader(r)}
}

// read reads one frame, verifying length and checksum. The frame's Recs
// are valid until the next read, which may refill them.
func (fr *frameReader) read() (frame, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return frame{}, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(fr.hdr[0:4])
	sum := binary.BigEndian.Uint32(fr.hdr[4:8])
	if n == 0 || n > maxFrameBody {
		return frame{}, fmt.Errorf("replica: invalid frame length %d", n)
	}
	var err error
	if fr.body, err = protocol.ReadBody(fr.r, fr.body, int(n)); err != nil {
		return frame{}, fmt.Errorf("replica: read body: %w", err)
	}
	if crc32.ChecksumIEEE(fr.body) != sum {
		return frame{}, fmt.Errorf("replica: frame checksum mismatch")
	}
	f, err := decodeFrame(fr.body, &fr.in, fr.recs)
	if c := cap(f.Recs); c > cap(fr.recs) && c <= maxKeptRecs {
		fr.recs = f.Recs
	}
	return f, err
}

// decodeFrame decodes a checksummed frame body, into recs' memory when the
// records fit. Nothing it returns aliases body.
func decodeFrame(body []byte, in *protocol.Interner, recs []journal.Record) (frame, error) {
	d := protocol.NewReader(body[1:], in)
	f := frame{
		Type: frameType(body[0]), Name: d.String(), Rank: int(d.Varint()),
		Batch: d.Uvarint(), TTLMillis: d.Varint(), Reason: d.String(),
	}
	// A record's frame is at least its header, which keeps a hostile
	// count from sizing the allocation.
	if n := d.Count(frameHeader); n > 0 {
		f.Recs = slices.Grow(recs[:0], n)[:n]
	}
	for i := range f.Recs {
		rec, n, err := journal.DecodeFrameWith(in, d.Rest())
		if err != nil {
			return frame{}, fmt.Errorf("replica: record %d of %d: %w", i+1, len(f.Recs), err)
		}
		f.Recs[i] = rec
		d.Skip(n)
	}
	if d.Err() != nil {
		return frame{}, fmt.Errorf("replica: malformed %d-byte frame body", len(body))
	}
	return f, nil
}

// LeaderOptions configures the leader's replication listener.
type LeaderOptions struct {
	// LeaseTTL is the takeover horizon: a standby that receives no frame
	// for this long treats the leader as dead. Lease frames are sent at a
	// third of it. Zero means 1s.
	LeaseTTL time.Duration
	// AckTimeout bounds how long one commit waits for one standby's ack
	// before detaching it. Zero means 2s.
	AckTimeout time.Duration
	// Telemetry receives the replication metrics. Nil disables.
	Telemetry *telemetry.Registry
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Leader serves the replication stream: it accepts standby connections
// on a TCP listener, attaches each to the Tee (snapshot + live batches),
// and renews its lease on every connection at a third of the TTL.
type Leader struct {
	tee  *Tee
	ln   net.Listener
	opts LeaderOptions

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// Serve starts a replication listener on addr (e.g. "127.0.0.1:0") fed by
// tee. Standbys dial the address returned by Addr.
func Serve(tee *Tee, addr string, opts LeaderOptions) (*Leader, error) {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = time.Second
	}
	if opts.AckTimeout <= 0 {
		opts.AckTimeout = 2 * time.Second
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("replica: listen: %w", err)
	}
	l := &Leader{tee: tee, ln: ln, opts: opts, conns: make(map[net.Conn]bool)}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the replication listener's address.
func (l *Leader) Addr() string { return l.ln.Addr().String() }

func (l *Leader) logf(format string, args ...any) {
	if l.opts.Logf != nil {
		l.opts.Logf(format, args...)
	}
}

// Close stops accepting, sends a clean detach to every standby (a clean
// shutdown is not a takeover trigger), and tears the connections down.
func (l *Leader) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	for c := range l.conns {
		_ = c.Close()
	}
	l.mu.Unlock()
	_ = l.ln.Close()
	l.wg.Wait()
	return nil
}

func (l *Leader) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			_ = conn.Close()
			return
		}
		l.conns[conn] = true
		l.mu.Unlock()
		l.wg.Add(1)
		go l.serveConn(conn)
	}
}

// serveConn runs one standby's stream: hello, atomic snapshot+attach,
// then the read loop feeding acks to the sink while a ticker renews the
// lease. The connection dying detaches the sink implicitly (its next
// Commit write fails).
func (l *Leader) serveConn(conn net.Conn) {
	defer l.wg.Done()
	defer func() {
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
		_ = conn.Close()
	}()

	in := newFrameReader(conn)
	hello, err := in.read()
	if err != nil || hello.Type != frameHello {
		return
	}
	l.logf("replica: standby %q (rank %d) attaching", hello.Name, hello.Rank)

	sink := &tcpSink{
		conn:    conn,
		out:     frameWriter{w: conn},
		name:    hello.Name,
		timeout: l.opts.AckTimeout,
		ttl:     l.opts.LeaseTTL,
		acks:    make(chan frame, 16),
		tel:     l.opts.Telemetry,
	}
	// Attach delivers the snapshot under the Tee's lock, so no committed
	// batch can race ahead of (or slip between) snapshot and attachment.
	err = l.tee.Attach(sink, func(snap []journal.Record) error {
		return sink.write(frame{Type: frameSnapshot, Recs: snap, TTLMillis: l.opts.LeaseTTL.Milliseconds()})
	})
	if err != nil {
		l.logf("replica: standby %q attach failed: %v", hello.Name, err)
		return
	}
	l.opts.Telemetry.Counter("replica.attaches").Inc()

	// Lease renewal at a third of the horizon, so two consecutive losses
	// still leave slack before a standby declares the leader dead.
	leaseStop := make(chan struct{})
	var leaseWG sync.WaitGroup
	leaseWG.Add(1)
	go func() {
		defer leaseWG.Done()
		tick := time.NewTicker(l.opts.LeaseTTL / 3)
		defer tick.Stop()
		for {
			select {
			case <-leaseStop:
				return
			case <-tick.C:
				if sink.write(frame{Type: frameLease, TTLMillis: l.opts.LeaseTTL.Milliseconds()}) != nil {
					return
				}
			}
		}
	}()
	defer func() {
		close(leaseStop)
		leaseWG.Wait()
	}()

	for {
		f, err := in.read()
		if err != nil {
			return // standby gone; next Commit write fails and detaches it
		}
		if f.Type != frameAck {
			continue
		}
		select {
		case sink.acks <- f:
		default: // stale ack nobody is waiting for
		}
	}
}

// tcpSink is the leader's handle on one connected standby.
type tcpSink struct {
	conn    net.Conn
	out     frameWriter
	name    string
	timeout time.Duration
	ttl     time.Duration
	acks    chan frame
	tel     *telemetry.Registry

	// Commit's own, under the Tee's lock.
	batch    uint64
	deadline *time.Timer
}

// write sends one frame under the write serializer.
func (s *tcpSink) write(f frame) error {
	_, err := s.out.write(f)
	return err
}

// Commit implements Sink: send the batch, wait for its ack. The frame's
// size feeds the lag gauge while the ack is outstanding.
func (s *tcpSink) Commit(recs []journal.Record) error {
	s.batch++
	start := transport.SystemClock.Now()
	n, err := s.out.write(frame{Type: frameRecords, Recs: recs, Batch: s.batch, TTLMillis: s.ttl.Milliseconds()})
	if err != nil {
		return fmt.Errorf("replica: standby %q: %w", s.name, err)
	}
	s.tel.Gauge("replica.lag_bytes").Set(int64(n))
	s.deadline = transport.Rearm(s.deadline, s.timeout)
	defer s.deadline.Stop()
	for {
		select {
		case ack := <-s.acks:
			if ack.Batch != s.batch {
				continue // ack for an older batch; keep waiting
			}
			s.tel.Gauge("replica.lag_bytes").Set(0)
			s.tel.Histogram("replica.commit.latency").Observe(transport.SystemClock.Now().Sub(start))
			return nil
		case <-s.deadline.C:
			return fmt.Errorf("replica: standby %q missed ack deadline %v", s.name, s.timeout)
		}
	}
}

// Detach implements Sink: best-effort detach notice, then drop the conn.
func (s *tcpSink) Detach(reason string) {
	_ = s.write(frame{Type: frameDetach, Reason: reason})
	_ = s.conn.Close()
}
