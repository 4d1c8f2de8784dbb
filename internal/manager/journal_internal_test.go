package manager

import (
	"fmt"
	"testing"

	"repro/internal/journal"
	"repro/internal/telemetry"
)

// nopJournal accepts every record and keeps none, so the only allocations
// a journal() call can make are the manager's own.
type nopJournal struct{}

func (nopJournal) Append(journal.Record) error         { return nil }
func (nopJournal) Sync() error                         { return nil }
func (nopJournal) Snapshot() ([]journal.Record, error) { return nil, nil }
func (nopJournal) Close() error                        { return nil }

// TestJournalFormatsNoRecordWithoutFlightRecorder: a journaled record is
// rendered to text only for the flight recorder. A live registry with no
// recorder attached — the production shape — must cost journal() exactly
// what a nil registry does; with a recorder attached the formatting shows.
func TestJournalFormatsNoRecordWithoutFlightRecorder(t *testing.T) {
	rec := journal.Record{Kind: journal.KindStepBegin, Wave: "reset", Agents: []string{"server", "handheld"}}
	rec.Step.ActionID = "A2"
	allocs := func(tel *telemetry.Registry) float64 {
		m := &Manager{jr: nopJournal{}, tel: tel, epoch: 1}
		return testing.AllocsPerRun(200, func() {
			if err := m.journal(rec, true); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare := allocs(nil)
	if live := allocs(telemetry.NewRegistry()); live != bare {
		t.Errorf("journal() allocates %.0f with a live registry and no flight recorder, %.0f with none", live, bare)
	}
	recording := telemetry.NewRegistry()
	recording.AttachFlight(telemetry.NewFlightRecorder("manager", 0))
	if with := allocs(recording); with <= bare {
		t.Errorf("journal() allocates %.0f with a flight recorder attached, no more than the %.0f without: the record never reaches it", with, bare)
	}
}

// TestTransitionDetailsAreBounded: a transition's detail reads "from -> to:
// cause" whether it was kept or formatted afresh, and ten times maxDetails
// distinct edges, each walked twice, leave the manager keeping maxDetails.
func TestTransitionDetailsAreBounded(t *testing.T) {
	var m Manager
	for i := 0; i < 10*maxDetails; i++ {
		e := edge{StateRunning, StatePreparing, fmt.Sprintf("cause %d", i)}
		for walk := 0; walk < 2; walk++ {
			if got, want := m.detail(e), "running -> preparing: "+e.cause; got != want {
				t.Fatalf("edge %d walk %d: detail %q, want %q", i, walk, got, want)
			}
		}
	}
	if len(m.details) != maxDetails {
		t.Fatalf("the manager keeps %d details after %d distinct edges, want %d", len(m.details), 10*maxDetails, maxDetails)
	}
}
