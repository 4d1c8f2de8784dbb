package video

import (
	"testing"

	"repro/internal/metasocket"
)

// fragment cuts frame f into packets of size bytes.
func fragment(f Frame, size int) []metasocket.Packet {
	n := (len(f.Payload) + size - 1) / size
	out := make([]metasocket.Packet, n)
	for i := range out {
		out[i] = metasocket.Packet{
			Frame: f.ID, Index: uint16(i), Count: uint16(n),
			Payload: f.Payload[i*size : min((i+1)*size, len(f.Payload))],
		}
	}
	return out
}

// TestPlayerHostileFragments pins what the player makes of fragments no
// honest server sends. None may panic.
func TestPlayerHostileFragments(t *testing.T) {
	good := fragment(GenerateFrame(1, 40), 16) // three fragments
	with := func(p metasocket.Packet, edit func(*metasocket.Packet)) metasocket.Packet {
		edit(&p)
		return p
	}
	cases := []struct {
		name    string
		packets []metasocket.Packet
		want    Stats // after Finalize
	}{
		{"in order", good, Stats{FramesOK: 1, PacketsDelivered: 3}},
		{"out of order", []metasocket.Packet{good[2], good[0], good[1]}, Stats{FramesOK: 1, PacketsDelivered: 3}},
		{"duplicate: the first copy wins",
			[]metasocket.Packet{good[0], with(good[0], func(p *metasocket.Packet) { p.Payload = []byte("not the first") }), good[1], good[2]},
			Stats{FramesOK: 1, PacketsDelivered: 4}},
		{"index not below count",
			[]metasocket.Packet{good[0], good[1], with(good[2], func(p *metasocket.Packet) { p.Index = 3 }), good[2]},
			Stats{FramesCorrupted: 1, PacketsDelivered: 4}},
		{"index far out of range, frame never completed",
			[]metasocket.Packet{good[0], with(good[1], func(p *metasocket.Packet) { p.Index = 65535 })},
			Stats{FramesCorrupted: 1, PacketsDelivered: 2}},
		{"count changes mid-frame",
			[]metasocket.Packet{good[0], with(good[1], func(p *metasocket.Packet) { p.Count = 5 }), good[2]},
			Stats{FramesCorrupted: 1, PacketsDelivered: 3}},
		{"count zero",
			[]metasocket.Packet{{Frame: 1, Payload: []byte("x")}},
			Stats{FramesCorrupted: 1, PacketsDelivered: 1}},
		{"after the verdict: ignored, but counted as delivered",
			[]metasocket.Packet{good[0], good[1], good[2], good[1], with(good[2], func(p *metasocket.Packet) { p.Index = 9 })},
			Stats{FramesOK: 1, PacketsDelivered: 5}},
		{"residual encoding",
			[]metasocket.Packet{good[0], with(good[1], func(p *metasocket.Packet) { p.Enc = []string{"des64"} }), good[2]},
			Stats{FramesCorrupted: 1, PacketsDelivered: 3, PacketsUndecoded: 1}},
		{"a fragment missing", good[:2], Stats{FramesIncomplete: 1, PacketsDelivered: 2}},
		{"checksum split across fragments", fragment(GenerateFrame(1, 40), 3), Stats{FramesOK: 1, PacketsDelivered: 16}},
		{"shorter than its checksum",
			[]metasocket.Packet{{Frame: 1, Count: 1, Payload: []byte("short")}},
			Stats{FramesCorrupted: 1, PacketsDelivered: 1}},
		{"a flipped bit",
			[]metasocket.Packet{good[0], with(good[1], func(p *metasocket.Packet) {
				p.Payload = append([]byte(nil), p.Payload...)
				p.Payload[3] ^= 1
			}), good[2]},
			Stats{FramesCorrupted: 1, PacketsDelivered: 3}},
	}
	for _, c := range cases {
		pl := NewPlayer()
		for _, p := range c.packets {
			if err := pl.Deliver(p); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		if got := pl.Finalize(); got != c.want {
			t.Errorf("%s: stats %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestPlayerCopiesFragments: the packet's bytes are only borrowed for the
// Deliver call; a sender that reuses its buffer between fragments must not
// change what the player verifies.
func TestPlayerCopiesFragments(t *testing.T) {
	pl := NewPlayer()
	scratch := make([]byte, 16)
	for _, p := range fragment(GenerateFrame(1, 40), 16) {
		p.Payload = scratch[:copy(scratch, p.Payload)]
		if err := pl.Deliver(p); err != nil {
			t.Fatal(err)
		}
		clear(scratch)
	}
	if got := pl.Finalize(); got.FramesOK != 1 {
		t.Errorf("stats %+v: the player kept an alias of the fragment it was lent", got)
	}
}

// FuzzPlayerDeliver feeds the player arbitrary packet sequences: five
// bytes each — frame, index, count, a flag byte, a body length — over a
// handful of frame ids so that fragments collide. It must not panic, and
// after Finalize every distinct frame id has exactly one verdict.
func FuzzPlayerDeliver(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 9, 1, 1, 2, 0, 9})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 5, 1, 0, 3, 0, 0, 1, 1, 200})
	f.Add([]byte{3, 255, 255, 0, 1, 3, 0, 255, 0, 1, 3, 0, 1, 0, 8})
	body := GenerateFrame(5, 300).Payload
	f.Fuzz(func(t *testing.T, script []byte) {
		pl := NewPlayer()
		ids := map[uint32]bool{}
		packets := 0
		for ; len(script) >= 5; script = script[5:] {
			p := metasocket.Packet{
				Frame:   uint32(script[0] % 8),
				Index:   uint16(script[1]),
				Count:   uint16(script[2]),
				Payload: body[:int(script[4])],
			}
			if script[3]&1 != 0 {
				p.Enc = []string{"des64"}
			}
			if script[3]&2 != 0 { // the far corners of the index space
				p.Index, p.Count = p.Index<<8|0xff, p.Count<<8
			}
			if err := pl.Deliver(p); err != nil {
				t.Fatal(err)
			}
			ids[p.Frame] = true
			packets++
		}
		st := pl.Finalize()
		if got := st.FramesOK + st.FramesCorrupted + st.FramesIncomplete; got != len(ids) {
			t.Fatalf("%d verdicts for %d distinct frames: %+v", got, len(ids), st)
		}
		if st.PacketsDelivered != packets {
			t.Fatalf("%d packets delivered, %d counted", packets, st.PacketsDelivered)
		}
		if again := pl.Finalize(); again != st {
			t.Fatalf("a second Finalize changed the statistics: %+v then %+v", st, again)
		}
	})
}
