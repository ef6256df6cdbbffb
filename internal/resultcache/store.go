package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/faults"
)

// The disk tier: content-addressed entry files under one directory,
// named by the same SHA-256 key the memory cache uses, so a completed
// job's artifacts survive the process that computed them. The write
// discipline is the classic atomic trio — temp file, fsync, rename,
// fsync the directory — and every read is verified by re-hashing the
// payload against the digest stored in the header; an entry that fails
// verification (torn write, bit rot, truncation) is quarantined in
// place and reported as a miss, never served.

// storeMagic opens every entry file; storeVersion is the on-disk
// format generation (bump on layout change, old entries then read as
// corrupt and are quarantined rather than misdecoded).
var storeMagic = [8]byte{'R', 'I', 'F', 'S', 'T', 'O', 'R', 'E'}

const storeVersion = 1

// storeHeaderSize is the fixed prefix of an entry file: magic,
// version, cells, report length, runs length, payload SHA-256.
const storeHeaderSize = 8 + 4 + 4 + 8 + 8 + sha256.Size

// maxEntryPayload bounds a decoded entry's claimed payload so a
// corrupted length field cannot drive a multi-gigabyte allocation.
const maxEntryPayload = 1 << 31

// quarantineSuffix marks an entry file that failed verification; the
// rename keeps the evidence for post-mortems while removing the key
// from the served namespace.
const quarantineSuffix = ".quarantine"

// tmpSuffix marks an in-progress write; a crash can leave one behind
// and OpenStore sweeps them (they were never renamed, so they were
// never visible).
const tmpSuffix = ".tmp"

// ErrCorrupt reports an entry that failed on-read verification and
// was quarantined.
var ErrCorrupt = errors.New("resultcache: corrupt store entry")

// StoreStats is a point-in-time snapshot of the disk tier's health
// counters. Put and Get outcomes are the caller's to count: each call
// returns its own.
type StoreStats struct {
	// VerifyFailures counts entries that failed re-hashing;
	// Quarantined counts the subset successfully renamed aside.
	VerifyFailures, Quarantined int64
	// SlowIO counts injected device stalls observed.
	SlowIO int64
}

// Store is the disk tier: a directory of content-addressed entry
// files. All operations are concurrency-safe behind one mutex (writes
// are rare — one per computed job — and reads are small). A nil *Store
// is valid and holds nothing, so callers can wire it unconditionally.
type Store struct {
	dir   string
	inj   *faults.StorageInjector
	sleep func(time.Duration)

	mu    sync.Mutex
	stats StoreStats
}

// StoreOptions configures the optional fault-injection and stall
// plumbing of a Store.
type StoreOptions struct {
	// Faults, when non-nil, injects storage failures into every
	// operation (see faults.StorageConfig).
	Faults *faults.StorageInjector
	// Sleep services injected slow-I/O stalls; nil drops them (the
	// decision is still counted). Production callers pass time.Sleep;
	// tests pass a recorder.
	Sleep func(time.Duration)
}

// OpenStore opens (creating if needed) the disk tier rooted at dir and
// sweeps temp files a previous crash may have left behind.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: open store: %w", err)
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix))
	if err != nil {
		return nil, fmt.Errorf("resultcache: open store: %w", err)
	}
	for _, tmp := range leftovers {
		if err := os.Remove(tmp); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("resultcache: sweep %s: %w", tmp, err)
		}
	}
	return &Store{dir: dir, inj: opts.Faults, sleep: opts.Sleep}, nil
}

// Dir reports the store's root directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Stats snapshots the store's counters (zero value for a nil store).
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// stall services one injected slow-I/O decision. Called with the
// mutex held, so the draw order is the operation order.
func (s *Store) stall() {
	d := s.inj.SlowIO()
	if d <= 0 {
		return
	}
	s.stats.SlowIO++
	if s.sleep != nil {
		s.sleep(d)
	}
}

// path returns the entry file for a key.
func (s *Store) path(k Key) string { return filepath.Join(s.dir, k.String()) }

// Put durably stores e under k: encode, write to a temp file, fsync,
// rename over the final name, fsync the directory. A failure before
// the rename leaves no visible entry (the temp file is removed
// best-effort); a directory-sync failure after the rename can leave
// the entry visible — its bytes are complete and verified on read,
// only its durability across a crash is unpromised, which is why the
// error is still returned and counted so the caller degrades
// conservatively. The store itself never panics and never exposes a
// partially written key, except through the injected torn-write
// fault, whose whole purpose is to prove the read path refuses such a
// file.
func (s *Store) Put(k Key, e Entry) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stall()
	if s.inj.WriteError() {
		return faults.ErrInjectedWrite
	}
	data := encodeEntry(e)
	if torn, frac := s.inj.TornWrite(); torn {
		// Expose the crash shape: a prefix lands, the write "succeeds".
		n := int(frac * float64(len(data)))
		if n < 1 {
			n = 1
		}
		if n >= len(data) {
			n = len(data) - 1
		}
		data = data[:n]
	}
	tmp := s.path(k) + tmpSuffix
	err := s.writeDurable(tmp, data)
	if err == nil {
		err = os.Rename(tmp, s.path(k))
	}
	if err == nil {
		err = syncDir(s.dir)
	}
	if err != nil {
		if rmErr := os.Remove(tmp); rmErr != nil && !os.IsNotExist(rmErr) {
			err = fmt.Errorf("%w (and removing temp: %v)", err, rmErr)
		}
		return err
	}
	return nil
}

// writeDurable writes data to path and fsyncs it, closing the file in
// every branch and reporting the first failure.
func (s *Store) writeDurable(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("resultcache: store write: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		if s.inj.SyncError() {
			err = faults.ErrInjectedSync
		} else {
			err = f.Sync()
		}
	}
	if closeErr := f.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return fmt.Errorf("resultcache: store write %s: %w", filepath.Base(path), err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("resultcache: sync dir: %w", err)
	}
	err = d.Sync()
	if closeErr := d.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return fmt.Errorf("resultcache: sync dir: %w", err)
	}
	return nil
}

// Get returns the entry stored under k after re-hash verification.
// A verified entry returns (e, true, nil); an absent key returns
// (zero, false, nil); an entry that fails verification is quarantined
// and returns (zero, false, error wrapping ErrCorrupt) — callers treat
// every error as a miss and count it, so corrupt bytes are never
// served.
func (s *Store) Get(k Key) (Entry, bool, error) {
	if s == nil {
		return Entry{}, false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stall()
	data, err := os.ReadFile(s.path(k))
	if err != nil {
		if os.IsNotExist(err) {
			return Entry{}, false, nil
		}
		return Entry{}, false, fmt.Errorf("resultcache: store read: %w", err)
	}
	if idx, rot := s.inj.BitRot(len(data)); rot {
		data[idx] ^= 1 << (idx % 8)
	}
	e, err := decodeEntry(data)
	if err != nil {
		s.stats.VerifyFailures++
		return Entry{}, false, s.quarantine(k, err)
	}
	return e, true, nil
}

// quarantine renames a failed entry aside so the key reads as absent
// from now on, folding any rename failure into the returned error.
func (s *Store) quarantine(k Key, cause error) error {
	err := fmt.Errorf("resultcache: entry %s: %w: %w", k.String()[:12], ErrCorrupt, cause)
	if rnErr := os.Rename(s.path(k), s.path(k)+quarantineSuffix); rnErr != nil {
		return fmt.Errorf("%w (quarantine failed: %v)", err, rnErr)
	}
	s.stats.Quarantined++
	return err
}

// encodeEntry renders an entry to its on-disk form: fixed header
// (magic, version, cells, payload lengths, payload SHA-256) followed
// by the report and runs bytes verbatim.
func encodeEntry(e Entry) []byte {
	buf := make([]byte, 0, storeHeaderSize+len(e.Report)+len(e.Runs))
	buf = append(buf, storeMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, storeVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(e.Cells))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(e.Report)))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(e.Runs)))
	h := sha256.New()
	//riflint:allow droppederr -- hash.Hash.Write never returns an error by contract
	h.Write(e.Report)
	//riflint:allow droppederr -- hash.Hash.Write never returns an error by contract
	h.Write(e.Runs)
	buf = h.Sum(buf)
	buf = append(buf, e.Report...)
	buf = append(buf, e.Runs...)
	return buf
}

// decodeEntry parses and verifies one entry file's bytes, failing on
// any header mismatch, truncation, trailing garbage, or payload
// digest mismatch.
func decodeEntry(data []byte) (Entry, error) {
	if len(data) < storeHeaderSize {
		return Entry{}, fmt.Errorf("truncated header (%d bytes)", len(data))
	}
	if [8]byte(data[:8]) != storeMagic {
		return Entry{}, errors.New("bad magic")
	}
	if v := binary.BigEndian.Uint32(data[8:12]); v != storeVersion {
		return Entry{}, fmt.Errorf("unsupported version %d", v)
	}
	cells := binary.BigEndian.Uint32(data[12:16])
	reportLen := binary.BigEndian.Uint64(data[16:24])
	runsLen := binary.BigEndian.Uint64(data[24:32])
	if reportLen > maxEntryPayload || runsLen > maxEntryPayload {
		return Entry{}, fmt.Errorf("implausible payload lengths %d/%d", reportLen, runsLen)
	}
	var digest [sha256.Size]byte
	copy(digest[:], data[32:32+sha256.Size])
	payload := data[storeHeaderSize:]
	if uint64(len(payload)) != reportLen+runsLen {
		return Entry{}, fmt.Errorf("payload is %d bytes, header claims %d", len(payload), reportLen+runsLen)
	}
	if sha256.Sum256(payload) != digest {
		return Entry{}, errors.New("payload digest mismatch")
	}
	return Entry{
		Report: payload[:reportLen:reportLen],
		Runs:   payload[reportLen:],
		Cells:  int(cells),
	}, nil
}
