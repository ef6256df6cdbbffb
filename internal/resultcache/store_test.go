package resultcache

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/faults"
)

func testEntry() Entry {
	return Entry{
		Report: []byte("Figure 7: p99 read latency\nrif beats baseline\n"),
		Runs:   []byte(`{"runs":[{"scheme":"rif","wall_time_s": 0.25}]}`),
		Cells:  3,
	}
}

func testKey(b byte) Key {
	var k Key
	for i := range k {
		k[i] = b
	}
	return k
}

func openTestStore(t *testing.T, dir string, opts StoreOptions) *Store {
	t.Helper()
	s, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreRoundTripAndReopen pins the durability contract: a stored
// entry reads back byte-identical, both from the store that wrote it
// and from a fresh store opened on the same directory — the restart
// shape.
func TestStoreRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	k, e := testKey(1), testEntry()
	if err := s.Put(k, e); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store) {
		t.Helper()
		got, ok, err := s.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get = (%v, %v); want hit", ok, err)
		}
		if !bytes.Equal(got.Report, e.Report) || !bytes.Equal(got.Runs, e.Runs) || got.Cells != e.Cells {
			t.Fatalf("entry mutated across storage: %+v vs %+v", got, e)
		}
	}
	check(s)
	check(openTestStore(t, dir, StoreOptions{}))

	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0].Name() != k.String() {
		t.Fatalf("store holds %v; want exactly %s", names, k)
	}

	if _, ok, err := s.Get(testKey(2)); ok || err != nil {
		t.Fatalf("absent key Get = (%v, %v); want clean miss", ok, err)
	}
}

// TestStoreSweepsTempFiles pins crash hygiene: a temp file left by a
// crashed write is removed on open and never becomes a visible key.
func TestStoreSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, testKey(3).String()+tmpSuffix)
	if err := os.WriteFile(tmp, []byte("half a write"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTestStore(t, dir, StoreOptions{})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file survived open (stat err %v)", err)
	}
	if _, ok, err := s.Get(testKey(3)); ok || err != nil {
		t.Fatalf("swept key Get = (%v, %v); want clean miss", ok, err)
	}
}

// TestStoreQuarantinesCorruptEntries pins the verified-read contract:
// a flipped byte anywhere in a stored file makes its Get report a
// wrapped ErrCorrupt, renames the file aside, and leaves the key
// reading as a clean miss — corrupt bytes are never served, and never
// re-served.
func TestStoreQuarantinesCorruptEntries(t *testing.T) {
	// Flip one byte at several offsets: header magic, length fields,
	// digest, payload.
	for _, offset := range []int{0, 9, 20, 40, storeHeaderSize + 5} {
		dir := t.TempDir()
		s := openTestStore(t, dir, StoreOptions{})
		k := testKey(4)
		if err := s.Put(k, testEntry()); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, k.String())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[offset] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		_, ok, err := s.Get(k)
		if ok || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("offset %d: Get = (%v, %v); want quarantined ErrCorrupt", offset, ok, err)
		}
		if _, err := os.Stat(path + quarantineSuffix); err != nil {
			t.Fatalf("offset %d: no quarantine file: %v", offset, err)
		}
		if _, ok, err := s.Get(k); ok || err != nil {
			t.Fatalf("offset %d: post-quarantine Get = (%v, %v); want clean miss", offset, ok, err)
		}
		st := s.Stats()
		if st.VerifyFailures != 1 || st.Quarantined != 1 {
			t.Fatalf("offset %d: stats %+v; want 1 verify failure, 1 quarantined", offset, st)
		}
	}
}

// TestStoreTruncationDetected pins that a torn file (the crash shape)
// fails verification at every truncation point.
func TestStoreTruncationDetected(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	k := testKey(5)
	if err := s.Put(k, testEntry()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, k.String())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, storeHeaderSize - 1, storeHeaderSize, len(data) - 1} {
		if _, err := decodeEntry(data[:n]); err == nil {
			t.Errorf("decodeEntry accepted a %d/%d-byte prefix", n, len(data))
		}
	}
	if _, err := decodeEntry(append(append([]byte{}, data...), 'x')); err == nil {
		t.Error("decodeEntry accepted trailing garbage")
	}
}

// TestStoreInjectedWriteError pins the ENOSPC class: Put fails with
// the injected errno and leaves no visible entry and no temp litter.
func TestStoreInjectedWriteError(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{
		Faults: faults.NewStorage(faults.StorageConfig{WriteErrorRate: 1}, 1),
	})
	k := testKey(6)
	if err := s.Put(k, testEntry()); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put under certain write faults: %v; want ENOSPC", err)
	}
	if names, _ := os.ReadDir(dir); len(names) != 0 {
		t.Fatalf("failed Put left files: %v", names)
	}
	if _, ok, err := s.Get(k); ok || err != nil {
		t.Fatalf("Get after failed Put = (%v, %v); want clean miss", ok, err)
	}
}

// TestStoreInjectedSyncError pins the fsync class: Put reports the
// failure (the write was never durable) and removes the temp file.
func TestStoreInjectedSyncError(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{
		Faults: faults.NewStorage(faults.StorageConfig{SyncErrorRate: 1}, 1),
	})
	if err := s.Put(testKey(7), testEntry()); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Put under certain sync faults: %v; want EIO", err)
	}
	if names, _ := os.ReadDir(dir); len(names) != 0 {
		t.Fatalf("failed Put left files: %v", names)
	}
}

// TestStoreInjectedTornWrite pins the power-cut class end to end: the
// torn Put "succeeds", but the read path refuses the file, quarantines
// it, and the key reads as a miss — the injected fault proves the
// verification that catches the organic one.
func TestStoreInjectedTornWrite(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{
		Faults: faults.NewStorage(faults.StorageConfig{TornWriteRate: 1}, 1),
	})
	k := testKey(8)
	if err := s.Put(k, testEntry()); err != nil {
		t.Fatalf("torn write must report success (the crash shape): %v", err)
	}
	_, ok, err := s.Get(k)
	if ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of torn entry = (%v, %v); want quarantined ErrCorrupt", ok, err)
	}
	if _, ok, err := s.Get(k); ok || err != nil {
		t.Fatalf("post-quarantine Get = (%v, %v); want clean miss", ok, err)
	}
}

// TestStoreInjectedBitRot pins the rot-at-rest class: a verified read
// path turns one flipped bit into a quarantine, never into served
// bytes.
func TestStoreInjectedBitRot(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{
		Faults: faults.NewStorage(faults.StorageConfig{BitRotRate: 1}, 1),
	})
	k := testKey(9)
	if err := s.Put(k, testEntry()); err != nil {
		t.Fatal(err)
	}
	_, ok, err := s.Get(k)
	if ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get under certain bit rot = (%v, %v); want quarantined ErrCorrupt", ok, err)
	}
}

// TestStoreInjectedSlowIO pins the stall class: the injected delay is
// serviced through the Sleep hook and counted, and the operation still
// succeeds.
func TestStoreInjectedSlowIO(t *testing.T) {
	dir := t.TempDir()
	var stalls []time.Duration
	s := openTestStore(t, dir, StoreOptions{
		Faults: faults.NewStorage(faults.StorageConfig{SlowIORate: 1, SlowIODelayMS: 3}, 1),
		Sleep:  func(d time.Duration) { stalls = append(stalls, d) },
	})
	k := testKey(10)
	if err := s.Put(k, testEntry()); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(k); !ok || err != nil {
		t.Fatalf("Get under slow io = (%v, %v); want hit", ok, err)
	}
	if len(stalls) != 2 || stalls[0] != 3*time.Millisecond {
		t.Fatalf("stalls %v; want one 3ms stall per operation", stalls)
	}
	if st := s.Stats(); st.SlowIO != 2 {
		t.Fatalf("stats %+v; want 2 slow-io observations", st)
	}
}

// TestStoreNil pins the nil-store contract the serving layer leans on.
func TestStoreNil(t *testing.T) {
	var s *Store
	if err := s.Put(testKey(11), testEntry()); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(testKey(11)); ok || err != nil {
		t.Fatalf("nil store Get = (%v, %v)", ok, err)
	}
	if s.Dir() != "" || s.Stats() != (StoreStats{}) {
		t.Fatal("nil store reported state")
	}
}

// TestStoreRejectsImplausibleLengths pins the allocation guard: a
// corrupted length field reads as corruption, not as a multi-gigabyte
// allocation.
func TestStoreRejectsImplausibleLengths(t *testing.T) {
	data := encodeEntry(testEntry())
	// Overwrite reportLen (offset 16) with an absurd value.
	for i := 16; i < 24; i++ {
		data[i] = 0xff
	}
	_, err := decodeEntry(data)
	if err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("decodeEntry = %v; want implausible-length rejection", err)
	}
}
