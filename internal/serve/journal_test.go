package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// journalLine marshals one record as the NDJSON line the journal
// writes, so tests can author journals byte-compatibly.
func journalLine(t *testing.T, rec journalRecord) []byte {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestJournalAppendReopenRoundTrip pins the WAL's basic durability
// shape: records appended by one journal life are read back intact by
// the next, and close is idempotent.
func TestJournalAppendReopenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	j, records, err := openJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(records))
	}
	want := []journalRecord{
		{Op: opAccept, ID: "job-1", Spec: &JobSpec{Experiment: "chaos", Requests: 40, Seed: 3}},
		{Op: opDone, ID: "job-1", Key: strings.Repeat("ab", 32), Cells: 12},
		{Op: opFailed, ID: "job-2", Error: "boom"},
	}
	for _, rec := range want {
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	j2, got, err := openJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if len(got) != len(want) {
		t.Fatalf("reopen replayed %d records, want %d", len(got), len(want))
	}
	for i, rec := range got {
		if rec.Op != want[i].Op || rec.ID != want[i].ID || rec.Key != want[i].Key ||
			rec.Cells != want[i].Cells || rec.Error != want[i].Error {
			t.Errorf("record %d = %+v, want %+v", i, rec, want[i])
		}
	}
	if spec := got[0].Spec; spec == nil || *spec != *want[0].Spec {
		t.Errorf("accept spec did not round-trip: %+v", got[0].Spec)
	}
}

// TestJournalTornTailForgiven pins the exact crash-tolerance contract:
// a torn FINAL line (the one shape fsync-per-record can leave) is
// forgiven, while garbage earlier in the file is corruption and fails
// the open — silently skipping records would un-journal accepted work.
func TestJournalTornTailForgiven(t *testing.T) {
	dir := t.TempDir()
	valid := journalLine(t, journalRecord{Op: opAccept, ID: "job-1", Spec: &JobSpec{Experiment: "chaos"}})
	done := journalLine(t, journalRecord{Op: opDone, ID: "job-1"})

	torn := filepath.Join(dir, "torn.ndjson")
	data := append(append([]byte{}, valid...), done...)
	data = append(data, []byte(`{"op":"accept","id":"job-2","spe`)...) // cut mid-append
	if err := os.WriteFile(torn, data, 0o644); err != nil {
		t.Fatal(err)
	}
	records, _, _, err := loadJournal(torn)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(records) != 2 {
		t.Fatalf("torn journal replayed %d records, want the 2 intact ones", len(records))
	}

	midGarbage := filepath.Join(dir, "corrupt.ndjson")
	data = append(append([]byte{}, valid...), []byte("not json at all\n")...)
	data = append(data, done...)
	if err := os.WriteFile(midGarbage, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loadJournal(midGarbage); err == nil {
		t.Fatal("mid-file garbage accepted; records after it would be silently dropped")
	}
}

// TestJournalTornTailTruncatedOnReopen pins the repair half of the
// torn-tail contract: opening a journal whose final line is torn cuts
// the file back to the last intact record, so the next append starts
// on a fresh line — without the truncate, the append would concatenate
// onto the partial record and the NEXT restart would read mid-file
// garbage and refuse the whole journal.
func TestJournalTornTailTruncatedOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	valid := journalLine(t, journalRecord{Op: opAccept, ID: "job-1", Spec: &JobSpec{Experiment: "chaos"}})
	data := append(append([]byte{}, valid...), []byte(`{"op":"accept","id":"job-2","spe`)...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j, records, err := openJournal(path, nil)
	if err != nil {
		t.Fatalf("torn tail rejected on open: %v", err)
	}
	if len(records) != 1 {
		t.Fatalf("torn journal replayed %d records, want 1", len(records))
	}
	if err := j.append(journalRecord{Op: opCancel, ID: "job-1"}); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	got, _, _, err := loadJournal(path)
	if err != nil {
		t.Fatalf("journal unreadable after append-over-torn-tail: %v", err)
	}
	if len(got) != 2 || got[1].Op != opCancel || got[1].ID != "job-1" {
		t.Fatalf("post-repair journal = %+v, want the intact record plus the new append", got)
	}
}

// TestFoldJournal pins replay folding: duplicate accepts ignored,
// terminal records mark jobs resolved, done records carry their store
// key, and the ID counter advances past every journaled job.
func TestFoldJournal(t *testing.T) {
	specA := &JobSpec{Experiment: "chaos"}
	specB := &JobSpec{Experiment: "refresh"}
	st := foldJournal([]journalRecord{
		{Op: opAccept, ID: "job-1", Spec: specA},
		{Op: opAccept, ID: "job-1", Spec: specB}, // duplicate: first wins
		{Op: opAccept, ID: "job-2", Spec: specB},
		{Op: opDone, ID: "job-1", Key: "aa", Cells: 12},
		{Op: opShed, ID: "job-4"},
		{Op: opAccept, ID: "job-9", Spec: specA},
		{Op: opAccept, ID: "job-bogus", Spec: specA},
	})
	if st.maxID != 9 {
		t.Errorf("maxID = %d, want 9", st.maxID)
	}
	wantOrder := []string{"job-1", "job-2", "job-9", "job-bogus"}
	if len(st.order) != len(wantOrder) {
		t.Fatalf("order = %v, want %v", st.order, wantOrder)
	}
	for i, id := range wantOrder {
		if st.order[i] != id {
			t.Fatalf("order = %v, want %v", st.order, wantOrder)
		}
	}
	if st.accepted["job-1"].Experiment != "chaos" {
		t.Error("duplicate accept overwrote the original spec")
	}
	if !st.terminal["job-1"] || !st.terminal["job-4"] {
		t.Error("terminal records not folded")
	}
	if st.terminal["job-2"] || st.terminal["job-9"] {
		t.Error("incomplete jobs marked terminal")
	}
	if rec := st.done["job-1"]; rec.Key != "aa" || rec.Cells != 12 {
		t.Errorf("done record not kept: %+v", rec)
	}
}

// TestReplayRerunsIncompleteJob is the crash-recovery core: a journal
// holding an accepted-but-unresolved spec (the shape a crash mid-run
// leaves) makes the restarted server re-enqueue and recompute the job
// under its original ID, with /report and /runs byte-identical to an
// uninterrupted run of the same spec.
func TestReplayRerunsIncompleteJob(t *testing.T) {
	// Uninterrupted baseline on a plain server.
	_, base, _ := newCachedServer(t, Config{JobWorkers: 1}, nil)
	ev := submitAndWait(t, base, `{"experiment":"chaos","requests":40,"seed":3}`)
	last := ev[len(ev)-1]
	if last.Event != string(Done) {
		t.Fatalf("baseline ended %q", last.Event)
	}
	_, wantReport := getBody(t, base.URL+"/jobs/"+last.Job+"/report")
	_, wantRuns := getBody(t, base.URL+"/runs/"+last.Job)

	// A journal that accepted job-7 and then "crashed".
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.ndjson")
	line := journalLine(t, journalRecord{
		Op: opAccept, ID: "job-7",
		Spec: &JobSpec{Experiment: "chaos", Requests: 40, Seed: 3},
	})
	if err := os.WriteFile(journalPath, line, 0o644); err != nil {
		t.Fatal(err)
	}

	srv := New(Config{
		QueueDepth:  4,
		JobWorkers:  1,
		StoreDir:    filepath.Join(dir, "store"),
		JournalPath: journalPath,
		Logf:        t.Logf,
	})
	var cells atomic.Int64
	srv.cellHook = func(*Job, obs.Manifest) { cells.Add(1) }
	srv.Start()
	defer srv.Stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if v := srv.recoveredJobs.Value(); v != 1 {
		t.Fatalf("recovered counter = %d, want 1", v)
	}
	resp, err := http.Get(ts.URL + "/jobs/job-7/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readEvents(t, resp.Body)
	resp.Body.Close()
	rlast := events[len(events)-1]
	if rlast.Event != string(Done) || rlast.Job != "job-7" {
		t.Fatalf("replayed job ended %+v, want done under its original ID", rlast)
	}
	if cells.Load() == 0 {
		t.Fatal("replayed job did not recompute")
	}
	_, report := getBody(t, ts.URL+"/jobs/job-7/report")
	_, runs := getBody(t, ts.URL+"/runs/job-7")
	if report != wantReport {
		t.Error("replayed report differs from the uninterrupted run")
	}
	if maskWallTime(runs) != maskWallTime(wantRuns) {
		t.Error("replayed manifests differ from the uninterrupted run (wall_time_s masked)")
	}

	// The recovered job advanced the ID counter: a fresh submission must
	// not collide with the journaled identity.
	fresh := submitAndWait(t, ts, `{"experiment":"refresh","requests":40,"seed":5}`)
	if id := fresh[len(fresh)-1].Job; id != "job-8" {
		t.Errorf("post-replay submission got %s, want job-8", id)
	}
}

// TestReplayDoneRematerializesFromStore pins the warm-restart half: a
// job completed and stored by one server life serves byte-identical
// /report and /runs from the next life under its original ID, and the
// rematerialized entry warms the memory cache — an identical
// resubmission is a pure hit, zero simulations.
func TestReplayDoneRematerializesFromStore(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		QueueDepth: 4,
		JobWorkers: 1,
		CacheBytes: DefaultCacheBytes,
		StoreDir:   dir, // journal defaults to <dir>/journal.ndjson
		Logf:       t.Logf,
	}
	spec := `{"experiment":"chaos","requests":40,"seed":9}`

	srv1 := New(cfg)
	srv1.Start()
	ts1 := httptest.NewServer(srv1.Handler())
	ev := submitAndWait(t, ts1, spec)
	last := ev[len(ev)-1]
	if last.Event != string(Done) || last.Cached {
		t.Fatalf("first life ended %+v", last)
	}
	_, wantReport := getBody(t, ts1.URL+"/jobs/"+last.Job+"/report")
	_, wantRuns := getBody(t, ts1.URL+"/runs/"+last.Job)
	ts1.Close()
	srv1.Stop()

	srv2 := New(cfg)
	var cells atomic.Int64
	srv2.cellHook = func(*Job, obs.Manifest) { cells.Add(1) }
	srv2.Start()
	defer srv2.Stop()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	if v := srv2.recoveredJobs.Value(); v != 1 {
		t.Fatalf("recovered counter = %d, want 1", v)
	}
	// Stored bytes serve verbatim, so no wall-time masking: the restart
	// is byte-identical, not merely equivalent.
	_, report := getBody(t, ts2.URL+"/jobs/"+last.Job+"/report")
	_, runs := getBody(t, ts2.URL+"/runs/"+last.Job)
	if report != wantReport {
		t.Error("restarted report differs from the life that computed it")
	}
	if runs != wantRuns {
		t.Error("restarted manifests differ from the life that computed them")
	}

	hit := submitAndWait(t, ts2, spec)
	hlast := hit[len(hit)-1]
	if hlast.Event != string(Done) || !hlast.Cached {
		t.Fatalf("post-restart resubmission not cached: %+v", hlast)
	}
	if n := cells.Load(); n != 0 {
		t.Fatalf("restarted server ran %d cells; the store should have served everything", n)
	}
	// The hit came from the rematerialization-warmed memory tier, not a
	// second disk read.
	if v := srv2.cacheHits.Value(); v != 1 {
		t.Fatalf("cache hits = %d, want the warmed-tier hit", v)
	}
}

// TestDrainGraceful pins the SIGTERM contract: during Drain the
// in-flight job runs to completion (journaled and cached like any
// other), still-queued jobs end with the terminal "shed" event, new
// submissions are refused with 503, and the journal records both
// outcomes before Drain returns.
func TestDrainGraceful(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{
		QueueDepth: 4,
		JobWorkers: 1,
		StoreDir:   dir,
		Logf:       t.Logf,
	})
	parked := make(chan struct{})
	release := make(chan struct{})
	var once atomic.Bool
	srv.cellHook = func(*Job, obs.Manifest) {
		if once.CompareAndSwap(false, true) {
			close(parked)
			<-release
		}
	}
	srv.Start()
	defer srv.Stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Job 1 starts and parks on its first cell.
	type streamResult struct {
		events []Event
		err    error
	}
	stream := make(chan streamResult, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/jobs", "application/json",
			strings.NewReader(`{"experiment":"chaos","requests":40,"seed":5}`))
		if err != nil {
			stream <- streamResult{err: err}
			return
		}
		defer resp.Body.Close()
		var events []Event
		sc := json.NewDecoder(resp.Body)
		for {
			var e Event
			if err := sc.Decode(&e); err != nil {
				break
			}
			events = append(events, e)
		}
		stream <- streamResult{events: events}
	}()
	<-parked

	// Job 2 queues behind it (different seed: an identical spec would
	// single-flight onto job 1 instead of queueing).
	resp := postJob(t, ts, `{"experiment":"chaos","requests":40,"seed":6}`, "?stream=0")
	if resp.StatusCode != 202 {
		t.Fatalf("job 2 status %d", resp.StatusCode)
	}
	var queued Status
	if err := json.NewDecoder(resp.Body).Decode(&queued); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	drained := make(chan struct{})
	go func() {
		srv.Drain()
		close(drained)
	}()
	for !srv.draining() {
		runtime.Gosched()
	}

	// Draining refuses new work immediately.
	lateResp := postJob(t, ts, `{"experiment":"refresh","requests":40}`, "?stream=0")
	lateResp.Body.Close()
	if lateResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain got %d, want 503", lateResp.StatusCode)
	}

	close(release)
	<-drained

	res := <-stream
	if res.err != nil {
		t.Fatal(res.err)
	}
	last := res.events[len(res.events)-1]
	// The chaos grid is 4 rates x 3 schemes = 12 cells; a drained
	// in-flight job finishes all of them.
	if last.Event != string(Done) || last.Partial || last.Completed != 12 {
		t.Fatalf("in-flight job ended %+v, want a complete done", last)
	}

	j, ok := srv.job(queued.ID)
	if !ok {
		t.Fatalf("queued job %s vanished", queued.ID)
	}
	if state, _ := j.State(); state != Shed {
		t.Fatalf("queued job ended %q, want shed", state)
	}
	if v := srv.shedJobs.Value(); v != 1 {
		t.Fatalf("shed counter = %d, want 1", v)
	}

	// The journal resolved both jobs before Drain returned.
	records, _, _, err := loadJournal(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]string{}
	for _, rec := range records {
		if rec.Op != opAccept {
			ops[rec.ID] = rec.Op
		}
	}
	if ops[last.Job] != opDone {
		t.Errorf("in-flight job journaled %q, want done", ops[last.Job])
	}
	if ops[queued.ID] != opShed {
		t.Errorf("queued job journaled %q, want shed", ops[queued.ID])
	}
}

// TestPersistenceDegradesUnderCertainFaults is the never-panic pin:
// with every storage-fault class firing on every operation, jobs still
// complete with correct client-visible bytes, the server sheds to
// memory-only operation, and the degradation gauge says so.
func TestPersistenceDegradesUnderCertainFaults(t *testing.T) {
	srv := New(Config{
		QueueDepth: 4,
		JobWorkers: 1,
		StoreDir:   t.TempDir(),
		StorageFaults: faults.StorageConfig{
			WriteErrorRate: 1,
			TornWriteRate:  1,
			SyncErrorRate:  1,
			BitRotRate:     1,
			SlowIORate:     1,
		},
		StorageFaultSeed: 3,
		Logf:             t.Logf,
	})
	srv.Start()
	defer srv.Stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ev := submitAndWait(t, ts, `{"experiment":"chaos","requests":40,"seed":4}`)
	last := ev[len(ev)-1]
	if last.Event != string(Done) {
		t.Fatalf("job under certain storage faults ended %+v", last)
	}
	if code, report := getBody(t, ts.URL+"/jobs/"+last.Job+"/report"); code != 200 || report == "" {
		t.Fatalf("report under faults: %d, %d bytes", code, len(report))
	}
	if v := srv.persistDegraded.Value(); v != 1 {
		t.Fatalf("persist_degraded = %d, want 1", v)
	}
	if srv.journalErrors.Value() == 0 && srv.storeErrors.Value() == 0 {
		t.Fatal("no persistence errors counted under certain faults")
	}

	// The broken tiers never serve: a resubmission recomputes.
	again := submitAndWait(t, ts, `{"experiment":"chaos","requests":40,"seed":4}`)
	if alast := again[len(again)-1]; alast.Event != string(Done) || alast.Cached {
		t.Fatalf("resubmission under faults: %+v", alast)
	}
}

// TestReplayBacklogBeyondQueueDepth pins replay through the one queue:
// a journal holding more incomplete jobs than QueueDepth queues them
// all in New, in journal order, ahead of new work. A legacy refused
// submission (accept + rejected, as servers that burned an ID on a 429
// wrote) stays resolved, but its ID still advances the counter.
func TestReplayBacklogBeyondQueueDepth(t *testing.T) {
	const depth = 2
	incomplete := make([]string, depth+2)
	writeJournal := func(t *testing.T, path string) {
		t.Helper()
		var data []byte
		for i := range incomplete {
			incomplete[i] = fmt.Sprintf("job-%d", i+1)
			data = append(data, journalLine(t, journalRecord{
				Op: opAccept, ID: incomplete[i],
				Spec: &JobSpec{Experiment: "tenants", Requests: 40, Seed: uint64(i + 1)},
			})...)
		}
		data = append(data, journalLine(t, journalRecord{
			Op: opAccept, ID: "job-9", Spec: &JobSpec{Experiment: "tenants", Requests: 40, Seed: 9},
		})...)
		data = append(data, journalLine(t, journalRecord{Op: opRejected, ID: "job-9"})...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("start", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "journal.ndjson")
		writeJournal(t, path)
		srv := New(Config{QueueDepth: depth, JobWorkers: 1, StoreDir: dir, Logf: t.Logf})
		defer srv.Stop()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		// The recovered backlog already fills the queue: new work waits.
		resp := postJob(t, ts, `{"experiment":"tenants","requests":40,"seed":50}`, "?stream=0")
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("submission behind a %d-job recovered backlog got %d, want 429",
				len(incomplete), resp.StatusCode)
		}

		srv.Start()
		for _, id := range incomplete {
			r, err := http.Get(ts.URL + "/jobs/" + id + "/events")
			if err != nil {
				t.Fatal(err)
			}
			events := readEvents(t, r.Body)
			r.Body.Close()
			if last := events[len(events)-1]; last.Event != string(Done) || last.Job != id {
				t.Fatalf("recovered %s ended %+v, want done under its own ID", id, last)
			}
		}
		// One job worker runs the queue in order, so the done records
		// land in journal order.
		records, _, _, err := loadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		var doneOrder []string
		for _, rec := range records {
			if rec.Op == opDone {
				doneOrder = append(doneOrder, rec.ID)
			}
		}
		if fmt.Sprint(doneOrder) != fmt.Sprint(incomplete) {
			t.Fatalf("recovered jobs completed in order %v, want journal order %v", doneOrder, incomplete)
		}
		if code, _ := getBody(t, ts.URL+"/jobs/job-9"); code != http.StatusNotFound {
			t.Fatalf("legacy rejected job-9 answered %d, want 404", code)
		}
		fresh := submitAndWait(t, ts, `{"experiment":"tenants","requests":40,"seed":50}`)
		if last := fresh[len(fresh)-1]; last.Event != string(Done) || last.Job != "job-10" {
			t.Fatalf("first fresh submission ended %+v, want done as job-10", last)
		}
	})

	t.Run("stop-without-start", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "journal.ndjson")
		writeJournal(t, path)
		srv := New(Config{QueueDepth: depth, JobWorkers: 1, StoreDir: dir, Logf: t.Logf})
		srv.Stop()
		ops := map[string]string{}
		records, _, _, err := loadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range records {
			ops[rec.ID] = rec.Op
		}
		for _, id := range incomplete {
			j, ok := srv.job(id)
			if !ok {
				t.Fatalf("recovered %s not registered", id)
			}
			if st, _ := j.State(); st != Cancelled {
				t.Errorf("recovered %s is %q after Stop, want cancelled", id, st)
			}
			if ops[id] != opCancel {
				t.Errorf("recovered %s journaled %q last, want %q", id, ops[id], opCancel)
			}
		}
	})
}
