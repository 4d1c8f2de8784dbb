package metasocket

import (
	"testing"

	"repro/internal/cipherkit"
)

func benchPacket(payload int) Packet {
	return Packet{
		Seq:     123456,
		Frame:   42,
		Index:   3,
		Count:   9,
		Enc:     []string{"des64"},
		Payload: make([]byte, payload),
	}
}

// BenchmarkPacketMarshal measures wire encoding of a 256-byte fragment.
func BenchmarkPacketMarshal(b *testing.B) {
	p := benchPacket(256)
	b.SetBytes(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Marshal()
	}
}

// BenchmarkPacketUnmarshal measures wire decoding.
func BenchmarkPacketUnmarshal(b *testing.B) {
	raw := benchPacket(256).Marshal()
	b.SetBytes(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncoderFilter measures the DES-64 encoder stage alone.
func BenchmarkEncoderFilter(b *testing.B) {
	f := NewEncoder("E1", cipherkit.MustDefault64())
	p := Packet{Payload: make([]byte, 256)}
	b.SetBytes(256)
	b.ReportAllocs()
	var out []Packet
	for i := 0; i < b.N; i++ {
		var err error
		if out, err = f.Process(out[:0], p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecoderBypass measures the bypass path, which every foreign
// packet takes during mixed-traffic adaptation windows.
func BenchmarkDecoderBypass(b *testing.B) {
	f := NewDecoder("D1", cipherkit.MustDefault64())
	p := Packet{Enc: []string{"des128"}, Payload: make([]byte, 256)}
	b.ReportAllocs()
	var out []Packet
	for i := 0; i < b.N; i++ {
		var err error
		if out, err = f.Process(out[:0], p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFECEncode measures the parity encoder across one group.
func BenchmarkFECEncode(b *testing.B) {
	f, err := NewFECEncoder("FE", 3)
	if err != nil {
		b.Fatal(err)
	}
	p := benchPacket(256)
	b.SetBytes(256)
	b.ReportAllocs()
	var out []Packet
	for i := 0; i < b.N; i++ {
		var err error
		if out, err = f.Process(out[:0], p); err != nil {
			b.Fatal(err)
		}
	}
}
