package metasocket

import (
	"testing"

	"repro/internal/telemetry"
)

// registries are the two telemetry states the packet path runs in: none
// attached, and a live one (counting a packet must then be an atomic add
// on a handle resolved once, not a lookup by name).
var registries = []struct {
	name string
	tel  func() *telemetry.Registry
}{
	{"telemetry=nil", func() *telemetry.Registry { return nil }},
	{"telemetry=live", telemetry.NewRegistry},
}

// BenchmarkPacketPath measures the per-packet send path — filter chain →
// resetting-flag check → marshal → transmit — through two passthrough
// filters, so the number is the framework's own cost. The transmit
// function is a sink.
func BenchmarkPacketPath(b *testing.B) {
	for _, reg := range registries {
		b.Run(reg.name, func(b *testing.B) {
			var sunk int
			s, err := NewSendSocket(func(d []byte) error {
				sunk += len(d)
				return nil
			}, NewPassthrough("a"), NewPassthrough("b"))
			if err != nil {
				b.Fatal(err)
			}
			s.SetTelemetry(reg.tel())
			payload := make([]byte, 1024)
			p := Packet{Frame: 7, Index: 0, Count: 1, Enc: []string{"flate", "des64"}, Payload: payload}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Send(p); err != nil {
					b.Fatal(err)
				}
			}
			_ = sunk
		})
	}
}

// BenchmarkPacketPathRecv measures the per-packet receive path: datagram →
// parse → decoder chain → sink.
func BenchmarkPacketPathRecv(b *testing.B) {
	for _, reg := range registries {
		b.Run(reg.name, func(b *testing.B) {
			var sunk int
			r, err := NewRecvSocket(func(p Packet) error {
				sunk += len(p.Payload)
				return nil
			}, NewPassthrough("a"))
			if err != nil {
				b.Fatal(err)
			}
			r.SetTelemetry(reg.tel())
			p := Packet{Seq: 9, Frame: 7, Count: 1, Enc: []string{"flate", "des64"}, Payload: make([]byte, 1024)}
			datagram := p.Marshal()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.deliver(datagram)
			}
			_ = sunk
		})
	}
}
