package video

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metasocket"
)

// Server is the video server of Fig. 3: it packetizes frames and pushes
// them through a sending MetaSocket onto the multicast network.
type Server struct {
	sock     *metasocket.SendSocket
	fragSize int

	framesSent atomic.Uint32

	// frags is SendFrame's packet slice, reused frame after frame. mu
	// makes concurrent SendFrames take turns with it; it is held across
	// the send, where they would queue on the socket anyway.
	mu    sync.Mutex
	frags []metasocket.Packet
}

// maxFragments is what a packet's 16-bit Count can describe.
const maxFragments = 1<<16 - 1

var errTooManyFragments = errors.New("needs more than 65535 fragments")

// NewServer builds a server over the given send socket. fragSize is the
// fragment payload size in bytes (the packetization granularity).
func NewServer(sock *metasocket.SendSocket, fragSize int) (*Server, error) {
	if sock == nil {
		return nil, fmt.Errorf("video: nil send socket")
	}
	if fragSize < 16 {
		return nil, fmt.Errorf("video: fragment size %d too small", fragSize)
	}
	return &Server{sock: sock, fragSize: fragSize}, nil
}

// Socket returns the server's send MetaSocket (the adaptation target).
func (s *Server) Socket() *metasocket.SendSocket { return s.sock }

// FramesSent returns how many frames the server has emitted.
func (s *Server) FramesSent() uint32 { return s.framesSent.Load() }

// SendFrame packetizes and transmits one frame. Packets of a frame carry
// the frame id and Index/Count fragmentation metadata. The whole frame
// goes out as one batch, so the socket's local safe state falls on frame
// boundaries — an adaptation can never split a frame mid-transmission.
//
// The fragments alias f.Payload, which is only read and only until
// SendFrame returns: a payload is borrowed for the duration of the call
// it is passed to; whoever keeps bytes past the call copies them.
//
//safeadaptvet:hotpath
func (s *Server) SendFrame(f Frame) error {
	n := max(1, (len(f.Payload)+s.fragSize-1)/s.fragSize)
	s.mu.Lock()
	defer s.mu.Unlock()
	err := errTooManyFragments
	if n <= maxFragments {
		s.frags = slices.Grow(s.frags[:0], n)[:n]
		for i := range s.frags {
			lo := min(i*s.fragSize, len(f.Payload))
			hi := min(lo+s.fragSize, len(f.Payload))
			s.frags[i] = metasocket.Packet{
				Frame:   f.ID,
				Index:   uint16(i),
				Count:   uint16(n),
				Payload: f.Payload[lo:hi:hi],
			}
		}
		err = s.sock.SendBatch(s.frags)
	}
	if err != nil {
		//safeadaptvet:allow hotpath -- error path: the frame was refused or the socket closed, the boxing happens after the hot path failed
		return fmt.Errorf("video: frame %d: %w", f.ID, err)
	}
	s.framesSent.Add(1)
	return nil
}

// Stream generates and sends frames until ctx is cancelled or count
// frames have been sent (count <= 0 streams until cancellation). A zero
// interval streams back-to-back.
func (s *Server) Stream(ctx context.Context, count int, bodySize int, interval time.Duration) error {
	var id uint32
	for count <= 0 || int(id) < count {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if err := s.SendFrame(GenerateFrame(id, bodySize)); err != nil {
			return err
		}
		id++
		if interval > 0 {
			timer := time.NewTimer(interval)
			select {
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			case <-timer.C:
			}
		}
	}
	return nil
}
