package video

import (
	"slices"
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
	mu sync.Mutex
	// frames holds an assembly per frame still being put together and the
	// shared judged sentinel for every frame that has had its verdict.
	frames map[uint32]*frameAssembly
	// free lists the assemblies recycled at their frames' verdicts,
	// linked through next: a steady stream reuses the same few.
	free  *frameAssembly
	stats Stats
}

// frameAssembly is one frame being put together. Fragment bodies are
// copied into buf as they arrive — the packet's bytes are only borrowed
// for the Deliver call — and spans says where each index landed.
type frameAssembly struct {
	spans     []span // by fragment index; its length is the frame's Count
	buf       []byte // fragment bodies, in arrival order
	received  int    // spans filled
	corrupted bool
	next      *frameAssembly // free list link
}

// span locates one fragment's body in its assembly's buf.
type span struct {
	off, n int
	have   bool
}

// judged stands in frames for every frame that has had its verdict: the
// verdict is all that outlives a frame, and keeping the payloads (or even
// an assembly) of every frame ever played grows the heap without bound.
var judged = new(frameAssembly)

// NewPlayer builds an empty player.
func NewPlayer() *Player {
	return &Player{frames: make(map[uint32]*frameAssembly)}
}

// Deliver implements the MetaSocket sink: it accepts one fragment, whose
// payload it copies — a payload is borrowed for the duration of the call
// it is passed to; whoever keeps bytes past the call copies them.
//
// The first fragment of a frame fixes its Count. Of two fragments with
// one index the first wins; a fragment whose Index is not below that
// Count, or whose Count differs from it, or that still carries an
// encoding, marks the frame corrupted; a fragment of a frame already
// judged is ignored.
//
//safeadaptvet:hotpath
func (pl *Player) Deliver(p metasocket.Packet) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.stats.PacketsDelivered++
	if len(p.Enc) > 0 {
		// Residual encoding: the decoder chain did not match the encoder.
		pl.stats.PacketsUndecoded++
	}

	fa := pl.frames[p.Frame]
	if fa == judged {
		return nil
	}
	if fa == nil {
		fa = pl.assembly(int(p.Count))
		pl.frames[p.Frame] = fa
	}
	if len(p.Enc) > 0 || int(p.Count) != len(fa.spans) {
		fa.corrupted = true
	}
	if int(p.Index) >= len(fa.spans) {
		fa.corrupted = true
	} else if sp := &fa.spans[p.Index]; !sp.have {
		*sp = span{off: len(fa.buf), n: len(p.Payload), have: true}
		//safeadaptvet:allow hotpath -- the one copy on the receive side: the fragment leaves the borrowed datagram or decoder buffer for the frame's own, which a recycled assembly has already grown to a frame's size
		fa.buf = append(fa.buf, p.Payload...)
		fa.received++
	}
	if fa.received < len(fa.spans) {
		return nil
	}

	if fa.intact() {
		pl.stats.FramesOK++
	} else {
		pl.stats.FramesCorrupted++
	}
	pl.frames[p.Frame] = judged
	fa.next, pl.free = pl.free, fa
	return nil
}

// assembly returns an empty assembly for a frame of count fragments, a
// recycled one when there is one.
func (pl *Player) assembly(count int) *frameAssembly {
	fa := pl.free
	if fa == nil {
		//safeadaptvet:allow hotpath -- the free list is empty only until as many assemblies exist as frames are ever open at once
		fa = &frameAssembly{}
	} else {
		pl.free = fa.next
	}
	spans := slices.Grow(fa.spans[:0], count)[:count]
	clear(spans)
	*fa = frameAssembly{spans: spans, buf: fa.buf[:0]}
	return fa
}

// intact verifies the complete frame's checksum — its first 8 bytes are
// the FNV-64a of the rest — reading the fragments in index order where
// they lie, in whatever order they arrived.
func (fa *frameAssembly) intact() bool {
	if fa.corrupted {
		return false
	}
	var want uint64
	header, sum := 0, uint64(fnvOffset64)
	for _, sp := range fa.spans {
		frag := fa.buf[sp.off : sp.off+sp.n]
		for ; header < 8 && len(frag) > 0; header++ {
			want = want<<8 | uint64(frag[0])
			frag = frag[1:]
		}
		sum = fnv64a(sum, frag)
	}
	return header == 8 && sum == want
}

// Finalize counts still-incomplete frames as incomplete and returns the
// final statistics. Call it after the stream has stopped and drained.
func (pl *Player) Finalize() Stats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for id, fa := range pl.frames {
		if fa == judged {
			continue
		}
		if fa.corrupted {
			pl.stats.FramesCorrupted++
		} else {
			pl.stats.FramesIncomplete++
		}
		pl.frames[id] = judged
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
