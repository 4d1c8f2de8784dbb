package video

import (
	"fmt"
	"sync"

	"repro/internal/metasocket"
)

// Stats summarizes what a client's player observed; the safe-vs-unsafe
// comparisons in the evaluation are judged on these numbers.
type Stats struct {
	// FramesOK counts frames reassembled completely with a valid
	// checksum.
	FramesOK int
	// FramesCorrupted counts frames whose reassembled payload failed the
	// checksum, or that contained a fragment delivered with residual
	// encoding (ciphertext leaked past the decoder chain).
	FramesCorrupted int
	// FramesIncomplete counts frames with missing fragments at teardown
	// (lost packets or an interrupted stream).
	FramesIncomplete int
	// PacketsUndecoded counts fragments that arrived at the player still
	// carrying encoding tags — the signature of a mismatched
	// encoder/decoder pair during an unsafe adaptation.
	PacketsUndecoded int
	// PacketsDelivered counts all fragments the player received.
	PacketsDelivered int
}

// Player is the integrity-verifying video player: it reassembles frames
// from fragments and verifies their checksums.
type Player struct {
	mu     sync.Mutex
	frames map[uint32]*frameAssembly
	stats  Stats
}

type frameAssembly struct {
	count     uint16
	fragments map[uint16][]byte // nil once finalized
	corrupted bool
	finalized bool
}

// NewPlayer builds an empty player.
func NewPlayer() *Player {
	return &Player{frames: make(map[uint32]*frameAssembly)}
}

// Deliver implements the MetaSocket sink: it accepts one fragment.
func (pl *Player) Deliver(p metasocket.Packet) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.stats.PacketsDelivered++

	fa := pl.frames[p.Frame]
	if fa == nil {
		fa = &frameAssembly{count: p.Count, fragments: make(map[uint16][]byte, p.Count)}
		pl.frames[p.Frame] = fa
	}
	if len(p.Enc) > 0 {
		// Residual encoding: the decoder chain did not match the encoder.
		pl.stats.PacketsUndecoded++
		fa.corrupted = true
	}
	if fa.finalized {
		return nil // late duplicate: the frame is judged, its fragments released
	}
	if _, dup := fa.fragments[p.Index]; !dup {
		fa.fragments[p.Index] = p.Payload
	}
	pl.maybeFinalize(p.Frame, fa)
	return nil
}

func (pl *Player) maybeFinalize(id uint32, fa *frameAssembly) {
	if len(fa.fragments) < int(fa.count) {
		return
	}
	fa.finalized = true
	if fa.intact(id) {
		pl.stats.FramesOK++
	} else {
		pl.stats.FramesCorrupted++
	}
	// The verdict is all that outlives the frame: keeping the payloads of
	// every frame ever played grows the heap without bound.
	fa.fragments = nil
}

// intact reassembles the complete frame and verifies its checksum.
func (fa *frameAssembly) intact(id uint32) bool {
	if fa.corrupted {
		return false
	}
	payload := make([]byte, 0)
	for i := uint16(0); i < fa.count; i++ {
		frag, ok := fa.fragments[i]
		if !ok {
			return false
		}
		payload = append(payload, frag...)
	}
	return Frame{ID: id, Payload: payload}.Verify() == nil
}

// Finalize counts still-incomplete frames as incomplete and returns the
// final statistics. Call it after the stream has stopped and drained.
func (pl *Player) Finalize() Stats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, fa := range pl.frames {
		if !fa.finalized {
			fa.finalized = true
			if fa.corrupted {
				pl.stats.FramesCorrupted++
			} else {
				pl.stats.FramesIncomplete++
			}
		}
	}
	return pl.stats
}

// Snapshot returns the statistics accumulated so far without finalizing.
func (pl *Player) Snapshot() Stats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.stats
}

// Client is one video client of Fig. 3: a receiving MetaSocket feeding a
// player.
type Client struct {
	name   string
	sock   *metasocket.RecvSocket
	player *Player
}

// NewClient wires a receive socket to a fresh player. The socket must
// have been created with the player's Deliver as its sink; use BuildClient
// for the common construction.
func NewClient(name string, sock *metasocket.RecvSocket, player *Player) (*Client, error) {
	if sock == nil || player == nil {
		return nil, fmt.Errorf("video: nil socket or player")
	}
	return &Client{name: name, sock: sock, player: player}, nil
}

// BuildClient constructs a player and its receive socket with the given
// initial decoder chain.
func BuildClient(name string, filters ...metasocket.Filter) (*Client, error) {
	player := NewPlayer()
	sock, err := metasocket.NewRecvSocket(player.Deliver, filters...)
	if err != nil {
		return nil, err
	}
	return &Client{name: name, sock: sock, player: player}, nil
}

// Name returns the client name.
func (c *Client) Name() string { return c.name }

// Socket returns the client's receive MetaSocket (the adaptation target).
func (c *Client) Socket() *metasocket.RecvSocket { return c.sock }

// Player returns the client's player.
func (c *Client) Player() *Player { return c.player }
