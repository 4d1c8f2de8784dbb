package journal

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// File is the durable journal backend: an append-only file of framed
// records (layout in codec.go). A record is in the log iff its frame reads
// back complete and its checksum verifies; a torn tail (the crash landed
// mid-write) is truncated away on reopen, never interpreted.
//
// Append only encodes, into a pending buffer; Sync hands the whole group
// to the file in one write and fsyncs it. Nothing reaches the file — or a
// reader of it, `safeadaptctl journal -follow` included — before the Sync
// that makes it durable, and after a Sync the File holds no memory of the
// records it wrote: Snapshot reads them back from the file.
type File struct {
	mu      sync.Mutex
	f       *os.File
	seq     uint64
	size    int64  // bytes of the file that are synced records
	pending []byte // frames appended since the last successful Sync
	// torn reports how many trailing bytes were discarded as a torn tail
	// when the file was opened.
	torn int64
}

// OpenFile opens (or creates) the journal at path, verifies the existing
// records, truncates any torn tail, and positions for append. A file
// whose frames verify but are not records of this version is refused
// (ErrUnknownVersion) and left untouched.
func OpenFile(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	recs, good, torn, err := scan(f)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	j := &File{f: f, size: good, torn: torn}
	if len(recs) > 0 {
		j.seq = recs[len(recs)-1].Seq
	}
	if torn > 0 {
		// Drop the torn tail so subsequent appends form a clean log.
		if err := f.Truncate(good); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	return j, nil
}

// scan reads every complete, checksummed record of f from the start and
// returns them, the byte offset where the valid log ends, and the number
// of trailing bytes that did not form a valid record.
func scan(f *os.File) (recs []Record, good, torn int64, err error) {
	info, err := f.Stat()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("journal: stat: %w", err)
	}
	recs, good, err = DecodeStream(io.NewSectionReader(f, 0, info.Size()))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s: %w at byte %d", f.Name(), err, good)
	}
	return recs, good, info.Size() - good, nil
}

// ReadFile loads the records of the journal at path without opening it
// for append — the inspection path (`safeadaptctl journal`). torn is the
// number of trailing bytes that did not form a valid record.
func ReadFile(path string) (recs []Record, torn int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: open: %w", err)
	}
	defer f.Close()
	recs, _, torn, err = scan(f)
	return recs, torn, err
}

// Torn reports how many trailing bytes were discarded on open.
func (j *File) Torn() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.torn
}

// Append implements Journal: number the record and encode its frame into
// the pending group. Nothing is written until Sync.
func (j *File) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	j.seq++
	rec.Seq = j.seq
	j.pending = AppendFrame(j.pending, rec)
	return nil
}

// Sync implements Journal: one write of the pending group, one fsync.
func (j *File) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	return j.flush()
}

// flush writes and fsyncs the pending group. The write is positioned at
// the end of the synced log, so repeating it after a failure overwrites
// whatever part of the group the failed attempt left behind.
func (j *File) flush() error {
	if len(j.pending) == 0 {
		return nil
	}
	if _, err := j.f.WriteAt(j.pending, j.size); err != nil {
		return fmt.Errorf("journal: write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.size += int64(len(j.pending))
	j.pending = j.pending[:0]
	return nil
}

// Snapshot implements Journal: the synced records, read back from the
// file in one buffered pass, followed by the pending tail — the log as the
// next Sync will leave it. A reader of the file itself sees only the
// former.
func (j *File) Snapshot() ([]Record, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil, fmt.Errorf("journal: closed")
	}
	recs, good, err := DecodeStream(io.NewSectionReader(j.f, 0, j.size))
	if err == nil && good != j.size {
		err = fmt.Errorf("valid log ends at byte %d of %d", good, j.size)
	}
	if err != nil {
		return nil, fmt.Errorf("journal: snapshot: %w", err)
	}
	for tail := j.pending; len(tail) > 0; {
		rec, n, err := DecodeFrame(tail)
		if err != nil {
			return nil, fmt.Errorf("journal: snapshot: pending tail: %w", err)
		}
		recs = append(recs, rec)
		tail = tail[n:]
	}
	return recs, nil
}

// Close implements Journal: a final Sync, then release the file.
func (j *File) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.flush()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

var _ Journal = (*File)(nil)
