package journal

import (
	"path/filepath"
	"testing"

	"repro/internal/protocol"
)

func benchStep() protocol.Step {
	return protocol.Step{
		PathIndex:    0,
		Attempt:      1,
		ActionID:     "A2",
		Participants: []string{"handheld", "server"},
		FromVector:   "0100101",
		ToVector:     "0100101",
	}
}

// BenchmarkFileCommit measures the durable write path: one framed,
// checksummed record, one write and one fsync — the floor of what the
// manager pays at every commit (step begin, point of no return, rollback
// decision, adapt-end).
func BenchmarkFileCommit(b *testing.B) {
	j, err := OpenFile(filepath.Join(b.TempDir(), "bench.journal"))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = j.Close() }()
	rec := Record{Epoch: 1, Kind: KindStepBegin, Step: benchStep()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append(rec); err != nil {
			b.Fatal(err)
		}
		if err := j.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileAppend is the non-commit path (per-ack records): encoding
// into the pending group without the write and fsync. The group is synced
// off the clock every 1,024 records so it stays the size a real commit
// group could reach, not the size of the benchmark.
func BenchmarkFileAppend(b *testing.B) {
	j, err := OpenFile(filepath.Join(b.TempDir(), "bench.journal"))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = j.Close() }()
	rec := Record{Epoch: 1, Kind: KindAck, Wave: "reset", Process: "server", Step: benchStep()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append(rec); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			b.StopTimer()
			if err := j.Sync(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkReopenAndReplay is the recovery read path: open a log of 1000
// records, verify every checksum, and fold it into the recovery State —
// what a successor manager does before its first probe.
func BenchmarkReopenAndReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.journal")
	j, err := OpenFile(path)
	if err != nil {
		b.Fatal(err)
	}
	step := benchStep()
	if err := j.Append(Record{Epoch: 1, Kind: KindEpoch}); err != nil {
		b.Fatal(err)
	}
	if err := j.Append(Record{Epoch: 1, Kind: KindAdaptBegin, Source: "0100101", Target: "1010010"}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := j.Append(Record{Epoch: 1, Kind: KindAck, Wave: "reset", Process: "server", Step: step}); err != nil {
			b.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, _, err := ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		st := Replay(recs)
		if !st.InFlight || st.LastEpoch != 1 {
			b.Fatalf("bad replay: %+v", st)
		}
	}
}
