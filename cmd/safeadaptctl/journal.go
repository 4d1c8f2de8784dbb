package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/journal"
)

// journalCmd inspects a manager write-ahead log: it dumps every durable
// record, reports a torn tail, and replays the log into the recovery
// state a successor manager would act on — the operator's view of "what
// was the manager doing when it died, and what will recovery do".
func journalCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("journal", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "machine-readable JSON output")
	quiet := fs.Bool("summary", false, "print only the replayed recovery state, not every record")
	follow := fs.Bool("follow", false, "tail a live journal: print each record as the manager commits it (Ctrl-C to stop)")
	poll := fs.Duration("poll", 200*time.Millisecond, "poll interval in -follow mode")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: safeadaptctl journal [-json] [-summary] [-follow] <file.journal>")
	}
	path := fs.Arg(0)

	if *follow {
		if *asJSON || *quiet {
			return fmt.Errorf("journal: -follow streams records; drop -json/-summary")
		}
		return followJournal(path, out, *poll, nil)
	}

	recs, torn, err := journal.ReadFile(path)
	if err != nil {
		return err
	}
	st := journal.Replay(recs)
	// The fold keeps a wave an earlier step was acknowledged on, emptied;
	// the operator is shown the in-flight step's acknowledgements only.
	for wave, procs := range st.Acked {
		if len(procs) == 0 {
			delete(st.Acked, wave)
		}
	}

	if *asJSON {
		doc := struct {
			Records       []journal.Record `json:"records"`
			TornTailBytes int64            `json:"tornTailBytes"`
			State         journal.State    `json:"state"`
		}{Records: recs, TornTailBytes: torn, State: st}
		return writeJSON(out, doc)
	}

	fmt.Fprintf(out, "journal: %s (%d records)\n", path, len(recs))
	if torn > 0 {
		fmt.Fprintf(out, "torn tail: %d trailing bytes failed the checksum and were ignored (crash mid-write)\n", torn)
	}
	if !*quiet {
		for _, r := range recs {
			fmt.Fprintf(out, "  %s\n", r)
		}
	}

	fmt.Fprintf(out, "last epoch: %d (a recovering manager starts at %d)\n", st.LastEpoch, st.LastEpoch+1)
	if !st.InFlight {
		fmt.Fprintln(out, "no in-flight adaptation: nothing to recover")
		return nil
	}
	fmt.Fprintf(out, "IN-FLIGHT adaptation: %s -> %s\n", st.Source, st.Target)
	if st.Plan != "" {
		fmt.Fprintf(out, "  plan: %s\n", st.Plan)
	}
	fmt.Fprintf(out, "  system last known at: %s\n", st.Current)
	if st.Step == nil {
		fmt.Fprintln(out, "  no step in flight (crashed between steps); recovery continues from there")
		return nil
	}
	fmt.Fprintf(out, "  step in flight: %s %s (attempt %d, participants %s)\n",
		st.Step.ActionID, st.Step.Key(), st.Step.Attempt, strings.Join(st.Step.Participants, ","))
	for _, wave := range ackWaves(st) {
		fmt.Fprintf(out, "  acked %s: %s\n", wave, strings.Join(ackedNames(st, wave), ","))
	}
	switch {
	case st.PastPoNR && !st.RollbackDecided:
		fmt.Fprintln(out, "  past the point of no return: recovery MUST re-drive the resume wave to completion")
	case st.RollbackDecided:
		fmt.Fprintln(out, "  rollback was decided: recovery re-sends rollback (idempotent)")
	default:
		fmt.Fprintln(out, "  before the point of no return: recovery rolls the step back safely")
	}
	return nil
}

// followJournal tails a live journal file: it prints every durable record
// already in the log, then keeps re-scanning from the last good byte
// offset, printing records as the writer commits them — the writer hands
// the file one group of records per commit, so a record shows up here when
// it becomes durable, not when it is appended. A clean EOF, a group still
// being written or a torn tail just means "the valid log ends here for
// now"; the tailer re-scans from there after the poll interval, exactly
// the WAL read discipline recovery uses. A nil stop channel follows until
// the process is interrupted; tests pass a channel and get a closing
// summary folded live via State.Apply.
func followJournal(path string, out io.Writer, poll time.Duration, stop <-chan struct{}) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("journal: open: %w", err)
	}
	defer f.Close()

	var st journal.State
	var off int64
	count := 0
	for {
		info, err := f.Stat()
		if err != nil {
			return fmt.Errorf("journal: stat: %w", err)
		}
		recs, n, err := journal.DecodeStream(io.NewSectionReader(f, off, info.Size()-off))
		for _, rec := range recs {
			st.Apply(rec)
			fmt.Fprintf(out, "%s\n", rec)
		}
		off += n
		count += len(recs)
		if err != nil {
			return fmt.Errorf("%s: %w at byte %d", path, err, off)
		}
		select {
		case <-stop:
			fmt.Fprintf(out, "followed %d records (%d valid bytes); last epoch %d, in-flight adaptation: %v\n",
				count, off, st.LastEpoch, st.InFlight)
			return nil
		default:
		}
		time.Sleep(poll)
	}
}

func ackWaves(st journal.State) []string {
	waves := make([]string, 0, len(st.Acked))
	for w := range st.Acked {
		waves = append(waves, w)
	}
	sort.Strings(waves)
	return waves
}

func ackedNames(st journal.State, wave string) []string {
	names := make([]string, 0, len(st.Acked[wave]))
	for p := range st.Acked[wave] {
		names = append(names, p)
	}
	sort.Strings(names)
	return names
}
