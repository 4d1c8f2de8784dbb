package journal

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// genRecords builds a protocol-shaped pseudo-random record sequence:
// adaptations that begin, plan, drive step attempts through acks,
// points of no return, rollbacks and epoch bumps (takeovers), and
// sometimes end. The generator's only contract is plausibility — the
// prefix-monotonicity property below must hold for ANY sequence.
func genRecords(rng *rand.Rand, n int) []Record {
	recs := []Record{{Epoch: 1, Kind: KindEpoch}}
	epoch := uint64(1)
	attempt := 0
	for len(recs) < n {
		recs = append(recs,
			Record{Epoch: epoch, Kind: KindAdaptBegin, Source: "1100", Target: "0011"},
			Record{Epoch: epoch, Kind: KindPlan, Detail: "A1 -> A2"})
		steps := rng.Intn(3) + 1
		for s := 0; s < steps && len(recs) < n; s++ {
			attempt++
			st := step(s, attempt, "A1", "1100", "0110")
			recs = append(recs, Record{Epoch: epoch, Kind: KindStepBegin, Step: st})
			for _, p := range []string{"server", "laptop"} {
				if rng.Intn(2) == 0 {
					recs = append(recs, Record{Epoch: epoch, Kind: KindAck, Wave: "reset", Process: p, Step: st})
				}
			}
			switch rng.Intn(3) {
			case 0:
				recs = append(recs,
					Record{Epoch: epoch, Kind: KindPoNR, Step: st},
					Record{Epoch: epoch, Kind: KindStepEnd, Step: st, Outcome: "completed"})
			case 1:
				recs = append(recs,
					Record{Epoch: epoch, Kind: KindRollback, Step: st},
					Record{Epoch: epoch, Kind: KindStepEnd, Step: st, Outcome: "rolled back"})
			default:
				// Crash cut mid-step; sometimes a successor fences a new
				// epoch over the dangling step.
				if rng.Intn(2) == 0 {
					epoch += uint64(rng.Intn(2) + 1)
					recs = append(recs, Record{Epoch: epoch, Kind: KindEpoch})
				}
			}
		}
		if rng.Intn(4) > 0 {
			recs = append(recs, Record{Epoch: epoch, Kind: KindAdaptEnd, Outcome: "completed"})
		}
	}
	return recs[:n]
}

// normalizeState makes the one representational difference between a
// fresh incremental Applier and Replay comparable: Replay always
// allocates the Acked map, an incremental fold over zero records does
// not.
func normalizeState(st State) State {
	if st.Acked == nil {
		st.Acked = make(map[string]map[string]bool)
	}
	return st
}

// TestStatePrefixMonotone is the property the whole hot-standby design
// leans on: folding records one at a time with State.Apply must, at
// EVERY record boundary, equal a cold Replay of that prefix. If this
// ever breaks, a standby's streamed state silently diverges from what
// cold recovery would compute, and takeover-without-replay is unsound.
func TestStatePrefixMonotone(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := genRecords(rng, 40)
		var inc State
		var forked State
		forkAt := len(recs) / 2
		for i, r := range recs {
			inc.Apply(r)
			cold := Replay(recs[:i+1])
			if !reflect.DeepEqual(normalizeState(inc.Clone()), normalizeState(cold)) {
				t.Fatalf("seed %d: incremental state diverged from cold replay at record %d (%s):\n inc  %+v\n cold %+v",
					seed, i, r.Kind, inc, cold)
			}
			if i == forkAt {
				forked = inc.Clone()
			}
		}
		// Clone must be a deep copy: folding the rest of the log into the
		// live state must not have mutated the forked snapshot.
		if !reflect.DeepEqual(normalizeState(forked), normalizeState(Replay(recs[:forkAt+1]))) {
			t.Fatalf("seed %d: Clone aliased live state; fork at %d was mutated by later Apply calls", seed, forkAt)
		}
	}
}

// encodeToBytes writes records through the real file journal and returns
// the raw on-disk byte stream.
func encodeToBytes(t testing.TB, recs []Record) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fuzz.journal")
	j, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzJournalStream throws arbitrary byte streams — seeded with valid,
// torn, duplicated and reordered frame sequences — at the WAL decoder
// and checks its total-function contract: never panic, never read past
// the input, stop at the first invalid frame, and decode the valid
// prefix stably (a rescan of the accepted bytes yields byte-identical
// results, and the incremental state fold agrees with Replay).
func FuzzJournalStream(f *testing.F) {
	valid := encodeToBytes(f, genRecords(rand.New(rand.NewSource(42)), 12))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                           // torn mid-frame
	f.Add(append(append([]byte{}, valid...), valid...))   // duplicated log
	f.Add(append(append([]byte{}, valid...), 0xde, 0xad)) // trailing garbage

	// Reorder the first two frames (both individually checksum-clean).
	if _, n1, err := DecodeFrame(valid); err == nil {
		if _, n2, err := DecodeFrame(valid[n1:]); err == nil {
			swapped := append([]byte{}, valid[n1:n1+n2]...)
			swapped = append(swapped, valid[:n1]...)
			swapped = append(swapped, valid[n1+n2:]...)
			f.Add(swapped)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		// A non-nil error is a frame that checksums clean yet is no record
		// of this version; the prefix before it is still the valid log.
		recs, good, _ := DecodeStream(bytes.NewReader(data))
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d outside [0, %d]", good, len(data))
		}
		recs2, good2, err := DecodeStream(bytes.NewReader(data[:good]))
		if err != nil || good2 != good || !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("rescan of the accepted prefix is unstable: %d/%d records, %d/%d bytes",
				len(recs), len(recs2), good, good2)
		}
		// Whatever decoded must fold: Replay and the incremental Apply
		// fold agree on any record sequence, valid protocol or not.
		var inc State
		for _, r := range recs {
			inc.Apply(r)
		}
		if !reflect.DeepEqual(normalizeState(inc), normalizeState(Replay(recs))) {
			t.Fatal("incremental fold diverged from Replay on fuzzed records")
		}
	})
}
