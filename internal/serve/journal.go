package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/faults"
)

// The write-ahead job journal: an append-only NDJSON file recording
// every accepted job spec before it enters the queue and a
// terminal record after its artifacts are cached. On restart the
// server replays the journal — completed jobs rematerialize from the
// disk store under their original IDs, incomplete jobs re-enqueue and
// recompute (determinism makes the rerun byte-identical), terminal
// jobs are skipped. Every append is fsynced, so the journal's tail is
// at most one torn record behind the crash; replay tolerates exactly
// that torn tail.

// Journal record operations. opAccept carries the spec; the rest are
// terminal markers keyed by job ID, named by the terminal state they
// record. opRejected is read, never written: a refused submission gets
// no ID and leaves no record, but journals from servers that gave it
// an ID hold accept + rejected, and replay still folds them.
const (
	opAccept   = "accept"
	opDone     = string(Done)
	opFailed   = string(Failed)
	opCancel   = string(Cancelled)
	opShed     = string(Shed)
	opRejected = "rejected"
)

// journalRecord is one NDJSON line of the job journal.
type journalRecord struct {
	// Op is the lifecycle transition this record logs.
	Op string `json:"op"`
	// ID is the server-assigned job identity the record belongs to.
	ID string `json:"id"`
	// Spec is the full submitted job description (accept records only):
	// everything replay needs to re-run the job from scratch.
	Spec *JobSpec `json:"spec,omitempty"`
	// Key is the job's content address in lowercase hex (done records
	// only): the name of its entry in the disk store.
	Key string `json:"key,omitempty"`
	// Cells is the completed manifest count (done records only).
	Cells int `json:"cells,omitempty"`
	// Error carries the failure message (failed records only).
	Error string `json:"error,omitempty"`
}

// journal is the append half: one file handle, one mutex, fsync per
// record. A nil *journal is valid and drops every append, so the
// serving layer can call it unconditionally.
type journal struct {
	inj *faults.StorageInjector

	mu       sync.Mutex
	f        *os.File
	buf      []byte
	appends  int64
	degraded bool
	closed   bool
}

// openJournal reads every intact record from path (tolerating a torn
// final line — the shape a mid-append crash leaves), truncates any
// torn tail so it cannot contaminate the next append, and opens the
// file for appending. A missing file is an empty journal.
func openJournal(path string, inj *faults.StorageInjector) (*journal, []journalRecord, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: open journal: %w", err)
	}
	records, keep, size, err := loadJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if keep < size {
		// A forgiven torn tail ends the file mid-record. O_APPEND would
		// concatenate the next append onto that partial line, turning a
		// recoverable tail into mid-file corruption that fails the NEXT
		// restart; cut the file back to the last intact record so every
		// append starts on a fresh line.
		if err := os.Truncate(path, keep); err != nil {
			return nil, nil, fmt.Errorf("serve: truncate torn journal tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: open journal: %w", err)
	}
	return &journal{f: f, inj: inj}, records, nil
}

// loadJournal reads the journal file and scans it (a missing file is
// an empty journal), also reporting the file size.
func loadJournal(path string) (records []journalRecord, keep, size int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, 0, nil
		}
		return nil, 0, 0, fmt.Errorf("serve: read journal: %w", err)
	}
	records, keep, err = scanJournal(data)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("serve: journal %s: %w", path, err)
	}
	return records, keep, int64(len(data)), nil
}

// scanJournal parses journal bytes into NDJSON records, also reporting
// the byte offset just past the last intact record (keep), so
// openJournal can truncate a forgiven tail before appending. Only a
// torn FINAL line is forgiven (fsync-per-record means the crash can
// tear at most the last append); garbage earlier in the file is
// corruption and fails the open, because silently skipping records
// would un-journal accepted work.
func scanJournal(data []byte) (records []journalRecord, keep int64, err error) {
	var torn bool
	for off := 0; off < len(data); {
		lineEnd := len(data)
		if nl := bytes.IndexByte(data[off:], '\n'); nl >= 0 {
			lineEnd = off + nl + 1
		}
		line := bytes.TrimSpace(data[off:lineEnd])
		off = lineEnd
		if len(line) == 0 {
			continue
		}
		if torn {
			return nil, 0, errors.New("corrupt record before end of file")
		}
		var rec journalRecord
		if jsonErr := json.Unmarshal(line, &rec); jsonErr != nil || rec.Op == "" || rec.ID == "" {
			torn = true // forgiven only if nothing follows
			continue
		}
		records = append(records, rec)
		keep = int64(lineEnd)
	}
	return records, keep, nil
}

// append writes one record and fsyncs it. The first failure degrades
// the journal permanently for this process — a WAL that might be
// missing records is worse than none, so the server sheds to
// memory-only operation (callers count and warn) rather than limping
// on a half-truthful log.
func (j *journal) append(rec journalRecord) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.degraded || j.closed {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		// A record is plain data; marshalling cannot fail short of a
		// programming error — degrade rather than panic regardless.
		j.degraded = true
		return fmt.Errorf("serve: journal append: %w", err)
	}
	j.buf = append(j.buf[:0], line...)
	j.buf = append(j.buf, '\n')
	_, err = j.f.Write(j.buf)
	if err == nil {
		if j.inj.SyncError() {
			err = faults.ErrInjectedSync
		} else {
			err = j.f.Sync()
		}
	}
	if err != nil {
		j.degraded = true
		return fmt.Errorf("serve: journal append: %w", err)
	}
	j.appends++
	return nil
}

// close fsyncs and closes the journal; safe to call more than once.
func (j *journal) close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	var err error
	if !j.degraded {
		err = j.f.Sync()
	}
	if closeErr := j.f.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return fmt.Errorf("serve: journal close: %w", err)
	}
	return nil
}

// isDegraded reports whether a previous append failed and the journal
// stopped recording.
func (j *journal) isDegraded() bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded
}

// jobNum parses the numeric suffix of a "job-N" ID (0 when malformed),
// used by replay to advance the ID counter past every journaled job.
func jobNum(id string) int {
	//riflint:allow droppederr -- malformed IDs intentionally parse as zero
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// replayState folds a journal's records into per-job outcomes in
// append order.
type replayState struct {
	// accepted maps job ID -> spec, in first-seen order (order slice).
	accepted map[string]*JobSpec
	order    []string
	// terminal marks jobs with a terminal record; done holds the
	// subset completed with their store key and cell count.
	terminal map[string]bool
	done     map[string]journalRecord
	maxID    int
}

// foldJournal replays records into a replayState.
func foldJournal(records []journalRecord) replayState {
	st := replayState{
		accepted: map[string]*JobSpec{},
		terminal: map[string]bool{},
		done:     map[string]journalRecord{},
	}
	for _, rec := range records {
		if n := jobNum(rec.ID); n > st.maxID {
			st.maxID = n
		}
		switch rec.Op {
		case opAccept:
			if rec.Spec == nil || st.accepted[rec.ID] != nil {
				continue
			}
			st.accepted[rec.ID] = rec.Spec
			st.order = append(st.order, rec.ID)
		case opDone:
			st.terminal[rec.ID] = true
			st.done[rec.ID] = rec
		case opFailed, opCancel, opShed, opRejected:
			st.terminal[rec.ID] = true
		}
	}
	return st
}

// errJournalReplay wraps journal/store failures surfaced during
// recovery; the server degrades to a cold start rather than refusing
// to boot.
var errJournalReplay = errors.New("serve: journal replay")
