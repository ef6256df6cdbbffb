package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
)

// postJob submits a spec and returns the streaming response.
func postJob(t *testing.T, ts *httptest.Server, spec string, query string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs"+query, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readEvents decodes NDJSON lines until the stream ends, returning
// every event in order.
func readEvents(t *testing.T, r io.Reader) []Event {
	t.Helper()
	var events []Event
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestJobSpecParams(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec JobSpec
		ok   bool
	}{
		{"missing experiment", JobSpec{}, false},
		{"unknown experiment", JobSpec{Experiment: "99"}, false},
		{"negative requests", JobSpec{Experiment: "chaos", Requests: -1}, false},
		{"negative workers", JobSpec{Experiment: "chaos", Workers: -2}, false},
		{"fault rate above 1", JobSpec{Experiment: "chaos",
			Faults: faults.Config{TransientSenseRate: 1.5}}, false},
		{"valid minimal", JobSpec{Experiment: "chaos"}, true},
		{"valid full", JobSpec{Experiment: "tenants", Requests: 200, Seed: 9, Workers: 2, Full: true}, true},
	} {
		_, err := tc.spec.Params()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid spec accepted", tc.name)
		}
	}

	// Omitted fields take the rifsim defaults, so a spec means the
	// same thing POSTed or passed as flags.
	p, err := JobSpec{Experiment: "chaos"}.Params()
	if err != nil {
		t.Fatal(err)
	}
	def := core.DefaultRunParams()
	if p.Requests != def.Requests || p.Seed != def.Seed || !p.Shrink {
		t.Fatalf("defaults not applied: requests=%d seed=%d shrink=%v", p.Requests, p.Seed, p.Shrink)
	}
	if p.Tool != "rifserve" || p.Experiment != "chaos" {
		t.Fatalf("provenance labels: tool=%q experiment=%q", p.Tool, p.Experiment)
	}
}

// TestServeEndToEnd drives the whole happy path: submit a chaos job,
// follow its NDJSON progress stream to completion, and check the
// report is byte-identical to a direct dispatcher run, the manifests
// are complete, and /metrics stays well-formed under hostile labels.
func TestServeEndToEnd(t *testing.T) {
	spool := t.TempDir()
	srv := New(Config{
		QueueDepth: 4,
		JobWorkers: 1,
		SpoolDir:   spool,
		Labels:     map[string]string{"instance": "ci\"runner\\1\nblue"},
	})
	srv.Start()
	defer srv.Stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, body := getBody(t, ts.URL+"/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if _, body := getBody(t, ts.URL+"/experiments"); !strings.Contains(body, `"chaos"`) {
		t.Fatalf("experiments listing missing chaos: %s", body)
	}

	resp := postJob(t, ts, `{"experiment":"chaos","requests":60,"seed":7,"workers":1}`, "")
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	events := readEvents(t, resp.Body)
	if len(events) < 3 {
		t.Fatalf("too few events: %+v", events)
	}
	if events[0].Event != "queued" || events[1].Event != "running" {
		t.Fatalf("stream must open queued, running; got %s, %s", events[0].Event, events[1].Event)
	}
	cells := 0
	for _, e := range events {
		if e.Event == "cell" {
			cells++
			if e.Scheme == "" || e.Workload == "" {
				t.Fatalf("cell event missing identity: %+v", e)
			}
		}
	}
	last := events[len(events)-1]
	// The chaos grid is 4 rates x 3 schemes.
	if last.Event != "done" || last.Completed != 12 || cells != 12 {
		t.Fatalf("terminal event %+v with %d cell events, want done/12/12", last, cells)
	}
	if last.Job != "job-1" || last.Experiment != "chaos" {
		t.Fatalf("terminal identity: %+v", last)
	}

	// The report must be the exact bytes the dispatcher (and hence
	// `rifsim -fig chaos -requests 60 -seed 7`) produces — run the
	// reference with a different worker count to also pin
	// worker-independence of the bytes.
	ref := core.DefaultRunParams()
	ref.Requests = 60
	ref.Seed = 7
	ref.Workers = 2
	var want bytes.Buffer
	if err := core.RunExperiment(&want, "chaos", ref); err != nil {
		t.Fatal(err)
	}
	code, got := getBody(t, ts.URL+"/jobs/job-1/report")
	if code != 200 {
		t.Fatalf("report: %d", code)
	}
	if got != want.String() {
		t.Fatalf("served report differs from direct dispatcher run:\n--- served ---\n%s\n--- direct ---\n%s", got, want.String())
	}

	// The manifest collection is complete and not partial.
	code, runsJSON := getBody(t, ts.URL+"/runs/job-1")
	if code != 200 {
		t.Fatalf("runs: %d", code)
	}
	var coll obs.Collection
	if err := json.Unmarshal([]byte(runsJSON), &coll); err != nil {
		t.Fatalf("runs payload: %v", err)
	}
	if coll.Len() != 12 || coll.Partial() {
		t.Fatalf("collection len=%d partial=%v, want 12/false", coll.Len(), coll.Partial())
	}

	// A finished job spooled exactly one manifest file, not partial.
	names, err := filepath.Glob(filepath.Join(spool, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || filepath.Base(names[0]) != "job-1.json" {
		t.Fatalf("spool contents: %v", names)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"partial"`) {
		t.Fatal("completed job's spool file marked partial")
	}
	if string(data) != runsJSON {
		t.Fatal("spool file differs from the /runs body")
	}

	// Status and listing views.
	if code, body := getBody(t, ts.URL+"/jobs/job-1"); code != 200 ||
		!strings.Contains(body, `"state": "done"`) ||
		!strings.Contains(body, `"seed": 7`) ||
		!strings.Contains(body, `"requests": 60`) ||
		!strings.Contains(body, `"events": "/jobs/job-1/events"`) {
		t.Fatalf("status view: %d %s", code, body)
	}
	if code, body := getBody(t, ts.URL+"/jobs"); code != 200 || strings.Count(body, `"id"`) != 1 {
		t.Fatalf("list view: %d %s", code, body)
	}
	if code, _ := getBody(t, ts.URL+"/jobs/nope"); code != 404 {
		t.Fatalf("missing job: %d", code)
	}
	if code, _ := getBody(t, ts.URL+"/runs/nope"); code != 404 {
		t.Fatalf("missing runs: %d", code)
	}

	// A late subscriber replays the full history and terminates.
	lateResp, err := http.Get(ts.URL + "/jobs/job-1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer lateResp.Body.Close()
	replay := readEvents(t, lateResp.Body)
	if len(replay) != len(events) || replay[len(replay)-1].Event != "done" {
		t.Fatalf("replayed %d events ending %q, want %d ending done",
			len(replay), replay[len(replay)-1].Event, len(events))
	}

	// /metrics: service counters present and hostile labels escaped.
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	mb, _ := io.ReadAll(resp2.Body)
	metrics := string(mb)
	for _, want := range []string{
		`rifserve_jobs_submitted_total{instance="ci\"runner\\1\nblue"} 1`,
		`rifserve_jobs_completed_total{instance="ci\"runner\\1\nblue"} 1`,
		"# TYPE rifserve_job_manifests summary",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q in:\n%s", want, metrics)
		}
	}
	// An unescaped newline would have split a sample across lines:
	// every non-comment line must end in a numeric value field.
	for _, line := range strings.Split(strings.TrimSpace(metrics), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i < 0 || line[:i] == "" {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

// TestServeBackpressure pins the bounded-queue contract without any
// timing dependence: with no workers started, the queue fills at its
// configured depth and the next submission is rejected with 429 +
// Retry-After; Stop then drains the queued job to a cancelled state
// with an empty partial manifest.
func TestServeBackpressure(t *testing.T) {
	spool := t.TempDir()
	srv := New(Config{QueueDepth: 1, JobWorkers: 1, SpoolDir: spool})
	// Deliberately not started: queued jobs stay queued.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJob(t, ts, `{"experiment":"tenants","requests":40}`, "?stream=0")
	defer resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("first submit: %d, want 202", resp.StatusCode)
	}

	// An identical spec attaches to the queued job-1 (single-flight
	// needs no queue slot); a different one finds the queue full.
	same := postJob(t, ts, `{"experiment":"tenants","requests":40}`, "?stream=0")
	defer same.Body.Close()
	var st Status
	if err := json.NewDecoder(same.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if same.StatusCode != 202 || st.ID != "job-1" {
		t.Fatalf("identical submit: %d %s, want 202 job-1", same.StatusCode, st.ID)
	}
	resp2 := postJob(t, ts, `{"experiment":"tenants","requests":40,"seed":2}`, "?stream=0")
	defer resp2.Body.Close()
	if resp2.StatusCode != 429 {
		t.Fatalf("second submit: %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// The rejected job must not appear in the listing.
	if _, body := getBody(t, ts.URL+"/jobs"); strings.Count(body, `"id"`) != 1 {
		t.Fatalf("rejected job leaked into listing: %s", body)
	}
	if _, metrics := getBody(t, ts.URL+"/metrics"); !strings.Contains(metrics, "rifserve_jobs_rejected_total 1") {
		t.Fatalf("rejection not counted:\n%s", metrics)
	}

	// Bad specs are rejected before touching the queue.
	for _, bad := range []string{
		`{"experiment":"nope"}`,
		`{"experiment":"chaos","requests":-5}`,
		`{"experiment":"chaos","bogus":1}`,
		`{broken`,
	} {
		r := postJob(t, ts, bad, "?stream=0")
		r.Body.Close()
		if r.StatusCode != 400 {
			t.Fatalf("spec %s: %d, want 400", bad, r.StatusCode)
		}
	}

	// Stop drains the queued job: cancelled, flushed as an empty
	// partial manifest.
	srv.Stop()
	if code, body := getBody(t, ts.URL+"/jobs/job-1"); code != 200 ||
		!strings.Contains(body, `"state": "cancelled"`) ||
		!strings.Contains(body, `"partial": true`) {
		t.Fatalf("drained job: %d %s", code, body)
	}
	data, err := os.ReadFile(filepath.Join(spool, "job-1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(data), `"partial"`) != 1 || !strings.Contains(string(data), `"partial": true`) {
		t.Fatalf("drained spool file must say partial exactly once:\n%s", data)
	}

	// After Stop the service refuses new work.
	resp3 := postJob(t, ts, `{"experiment":"tenants"}`, "?stream=0")
	resp3.Body.Close()
	if resp3.StatusCode != 503 {
		t.Fatalf("submit after stop: %d, want 503", resp3.StatusCode)
	}
}

// TestServeGracefulShutdownPartialManifest is the SIGTERM contract
// minus the signal (cmd/rifserve wires SIGTERM to exactly this Stop
// call, and tests the signal half itself): cancelling mid-job keeps
// the completed cells, flushes one manifest collection marked
// "partial": true exactly once, and ends the progress stream with a
// cancelled event.
func TestServeGracefulShutdownPartialManifest(t *testing.T) {
	spool := t.TempDir()
	srv := New(Config{QueueDepth: 2, JobWorkers: 1, SpoolDir: spool})
	// Cancel deterministically after the first grid cell: the hook
	// runs on the grid worker goroutine before the next cell's stop
	// poll, so the job always ends cancelled mid-job — then drain the
	// whole server, which is exactly what the SIGTERM handler does.
	stopped := make(chan struct{})
	var once sync.Once
	srv.cellHook = func(j *Job, _ obs.Manifest) {
		once.Do(func() {
			j.Cancel()
			go func() { srv.Stop(); close(stopped) }()
		})
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJob(t, ts, `{"experiment":"chaos","requests":120,"seed":3,"workers":1}`, "")
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	events := readEvents(t, resp.Body)
	<-stopped

	last := events[len(events)-1]
	if last.Event != "cancelled" || !last.Partial {
		t.Fatalf("terminal event %+v, want cancelled with partial=true", last)
	}
	if last.Completed < 1 || last.Completed >= 12 {
		t.Fatalf("cancelled with %d cells, want mid-job (1..11)", last.Completed)
	}

	// Exactly one spool file, saying "partial": true exactly once, and
	// its runs match the cells the job completed.
	names, err := filepath.Glob(filepath.Join(spool, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("spool files: %v, want exactly one", names)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), `"partial"`); got != 1 {
		t.Fatalf(`spool file contains "partial" %d times, want exactly 1:`+"\n%s", got, data)
	}
	if !strings.Contains(string(data), `"partial": true`) {
		t.Fatalf("spool file not marked partial:\n%s", data)
	}
	var coll obs.Collection
	if err := json.Unmarshal(data, &coll); err != nil {
		t.Fatal(err)
	}
	if !coll.Partial() || coll.Len() != last.Completed {
		t.Fatalf("flushed collection len=%d partial=%v, want %d/true",
			coll.Len(), coll.Partial(), last.Completed)
	}

	// And the drained server refuses new submissions.
	resp2 := postJob(t, ts, `{"experiment":"chaos"}`, "?stream=0")
	resp2.Body.Close()
	if resp2.StatusCode != 503 {
		t.Fatalf("submit after shutdown: %d, want 503", resp2.StatusCode)
	}
}

// TestServeCancelEndpoint cancels one job via DELETE while the server
// keeps running: only that job is affected. The DELETE is issued
// synchronously from the cell hook (grid worker goroutine), so it is
// ordered before the next cell's stop poll — deterministically
// mid-job.
func TestServeCancelEndpoint(t *testing.T) {
	srv := New(Config{QueueDepth: 2, JobWorkers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var once sync.Once
	srv.cellHook = func(j *Job, _ obs.Manifest) {
		if j.ID != "job-1" {
			return
		}
		once.Do(func() {
			req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+j.ID, nil)
			if err != nil {
				t.Error(err)
				return
			}
			dr, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			dr.Body.Close()
			if dr.StatusCode != 202 {
				t.Errorf("cancel: %d, want 202", dr.StatusCode)
			}
		})
	}
	srv.Start()
	defer srv.Stop()

	resp := postJob(t, ts, `{"experiment":"chaos","requests":120,"workers":1}`, "")
	defer resp.Body.Close()
	events := readEvents(t, resp.Body)
	last := events[len(events)-1]
	if last.Event != "cancelled" || !last.Partial || last.Completed < 1 || last.Completed >= 12 {
		t.Fatalf("terminal event %+v, want mid-job cancelled", last)
	}

	// The server still accepts and completes new jobs.
	resp2 := postJob(t, ts, `{"experiment":"chaos","requests":40}`, "")
	defer resp2.Body.Close()
	events2 := readEvents(t, resp2.Body)
	if events2[len(events2)-1].Event != "done" {
		t.Fatalf("post-cancel job ended %+v, want done", events2[len(events2)-1])
	}

	// A report for an unfinished (never-submitted) state answers 409.
	code, _ := getBody(t, ts.URL+"/jobs/job-1/report")
	if code != 200 {
		// job-1 terminated (cancelled) so its (possibly empty) report
		// is servable; only non-terminal jobs answer 409 — covered by
		// construction above, nothing more to assert here.
		t.Fatalf("terminal job report: %d", code)
	}
}

// TestFailedJobFinishes drives the Failed path: a cell that panics
// fails its job with the panic's text, the job's spool file is flushed
// without the partial mark, the journal records "failed", the failure
// is counted once and the single-flight slot is released, so an
// identical resubmission recomputes instead of attaching or hitting.
func TestFailedJobFinishes(t *testing.T) {
	store, spool := t.TempDir(), t.TempDir()
	srv := New(Config{QueueDepth: 2, JobWorkers: 1, StoreDir: store, SpoolDir: spool, Logf: t.Logf})
	var panicked atomic.Bool
	srv.cellHook = func(*Job, obs.Manifest) {
		if panicked.CompareAndSwap(false, true) {
			panic("injected cell failure")
		}
	}
	srv.Start()
	defer srv.Stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := `{"experiment":"chaos","requests":40,"seed":11}`
	events := submitAndWait(t, ts, spec)
	last := events[len(events)-1]
	if last.Event != string(Failed) || !strings.Contains(last.Error, "panicked: injected cell failure") {
		t.Fatalf("job ended %+v, want failed with the cell panic", last)
	}
	data, err := os.ReadFile(filepath.Join(spool, last.Job+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"partial": true`) {
		t.Fatalf("failed job's spool file is marked partial:\n%s", data)
	}
	journal, err := os.ReadFile(filepath.Join(store, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(journal, []byte(`{"op":"failed","id":"`+last.Job+`","error":`)) {
		t.Fatalf("journal has no failed record for %s:\n%s", last.Job, journal)
	}
	if v := srv.failed.Value(); v != 1 {
		t.Fatalf("failed counter = %d, want 1", v)
	}
	srv.mu.Lock()
	inflight := len(srv.inflight)
	srv.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("failed job kept its single-flight slot (inflight=%d)", inflight)
	}

	events = submitAndWait(t, ts, spec)
	if again := events[len(events)-1]; again.Event != string(Done) || again.Cached || again.Job == last.Job {
		t.Fatalf("resubmission ended %+v, want a recomputed done", again)
	}
}

// TestSubmitAfterShutdownResolvesJob pins the submit/shutdown race: a
// submission that slips past the handler's draining() check and lands
// its queue send after Stop has already drained the queue must still
// reach a terminal state (and re-drain the queue behind itself) — not
// sit Queued forever with a hung event stream and an unterminated
// journal accept record.
func TestSubmitAfterShutdownResolvesJob(t *testing.T) {
	srv := New(Config{QueueDepth: 2, JobWorkers: 1})
	srv.Start()
	srv.Stop() // workers gone, queue drained, quit closed

	spec := JobSpec{Experiment: "chaos", Requests: 40, Seed: 2}
	p, err := spec.Params()
	if err != nil {
		t.Fatal(err)
	}
	j, ok := srv.submit(spec, p)
	if !ok {
		t.Fatal("post-shutdown submission rejected as queue-full, want accepted-then-resolved")
	}
	if state, _ := j.State(); state != Cancelled {
		t.Fatalf("post-shutdown submission ended %q, want cancelled", state)
	}
	if n := len(srv.queue); n != 0 {
		t.Fatalf("%d jobs left in the queue after the late submit resolved", n)
	}
}
