package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// wallTime matches the one manifest field that is host noise rather
// than simulation output. Masking it (on BOTH sides of a comparison)
// pins every other byte of a manifest collection.
var wallTime = regexp.MustCompile(`"wall_time_s": [0-9eE.+-]+`)

func maskWallTime(s string) string {
	return wallTime.ReplaceAllString(s, `"wall_time_s": 0`)
}

// newCachedServer builds a started server with the cache enabled and
// a cell counter wired through the cell hook (so tests can assert how
// many simulations actually ran); extra, when non-nil, runs after the
// counter on the same hook. The hook is installed before Start.
func newCachedServer(t *testing.T, cfg Config, extra func(*Job, obs.Manifest)) (*Server, *httptest.Server, *atomic.Int64) {
	t.Helper()
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 8
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	srv := New(cfg)
	var cells atomic.Int64
	srv.cellHook = func(j *Job, m obs.Manifest) {
		cells.Add(1)
		if extra != nil {
			extra(j, m)
		}
	}
	srv.Start()
	t.Cleanup(srv.Stop)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, &cells
}

// submitAndWait posts a spec, follows the stream to the terminal
// event, and returns the events.
func submitAndWait(t *testing.T, ts *httptest.Server, spec string) []Event {
	t.Helper()
	resp := postJob(t, ts, spec, "")
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	events := readEvents(t, resp.Body)
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	return events
}

// TestCacheHitByteIdentityAllExperiments is the cache-correctness pin:
// for EVERY experiment a spec may name, a repeat submission must be
// served from the cache (no simulation runs) with a report
// byte-identical to the first run's, and a manifest collection
// byte-identical to both the first run's and a fresh dispatcher
// recomputation at a different worker count (modulo the wall_time_s
// host-noise field). This is the serving-layer heir of the
// worker-invariance pins: content addressing is only sound because
// output is a pure function of the addressed inputs.
func TestCacheHitByteIdentityAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	_, ts, cells := newCachedServer(t, Config{JobWorkers: 1}, nil)

	for _, exp := range core.ValidExperiments() {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			spec := `{"experiment":"` + exp + `","requests":30,"seed":11}`
			first := submitAndWait(t, ts, spec)
			last := first[len(first)-1]
			if last.Event != string(Done) {
				t.Fatalf("first run ended %q (%s)", last.Event, last.Error)
			}
			if last.Cached {
				t.Fatal("first run claims cached")
			}
			_, report1 := getBody(t, ts.URL+"/jobs/"+last.Job+"/report")
			_, runs1 := getBody(t, ts.URL+"/runs/"+last.Job)

			ranBefore := cells.Load()
			second := submitAndWait(t, ts, spec)
			slast := second[len(second)-1]
			if slast.Event != string(Done) || !slast.Cached {
				t.Fatalf("repeat submission not served from cache: %+v", slast)
			}
			if slast.Job == last.Job {
				t.Fatal("repeat submission reused the first job ID")
			}
			if ran := cells.Load() - ranBefore; ran != 0 {
				t.Fatalf("cache hit ran %d cells", ran)
			}
			_, report2 := getBody(t, ts.URL+"/jobs/"+slast.Job+"/report")
			_, runs2 := getBody(t, ts.URL+"/runs/"+slast.Job)
			if report1 != report2 {
				t.Error("cached report differs from the run that populated it")
			}
			if runs1 != runs2 {
				t.Error("cached manifest collection differs from the run that populated it")
			}

			// Fresh recomputation through the dispatcher at a different
			// worker count: the cached bytes must match it too.
			p, err := JobSpec{Experiment: exp, Requests: 30, Seed: 11}.Params()
			if err != nil {
				t.Fatal(err)
			}
			p.Workers = 2
			p.Collect = obs.NewCollection()
			var report bytes.Buffer
			if err := core.RunExperiment(&report, exp, p); err != nil {
				t.Fatal(err)
			}
			if report.String() != report1 {
				t.Error("cached report differs from a fresh dispatcher recomputation")
			}
			var fresh bytes.Buffer
			if err := obs.WriteJSON(&fresh, p.Collect); err != nil {
				t.Fatal(err)
			}
			if maskWallTime(fresh.String()) != maskWallTime(runs1) {
				t.Error("cached manifests differ from a fresh recomputation (wall_time_s masked)")
			}
		})
	}
}

// TestCacheKeyDefaultsCollide pins a deliberate canonicalization
// property: a spec relying on defaults and one spelling the same
// values explicitly (including a different worker count, which never
// affects output) address the same cache entry.
func TestCacheKeyDefaultsCollide(t *testing.T) {
	_, ts, _ := newCachedServer(t, Config{JobWorkers: 1}, nil)

	first := submitAndWait(t, ts, `{"experiment":"ablate-secondcheck","requests":40}`)
	if last := first[len(first)-1]; last.Event != string(Done) || last.Cached {
		t.Fatalf("first run: %+v", last)
	}
	def := core.DefaultRunParams()
	explicit, err := json.Marshal(JobSpec{
		Experiment: "ablate-secondcheck",
		Requests:   40,
		Seed:       def.Seed,
		Workers:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	second := submitAndWait(t, ts, string(explicit))
	if last := second[len(second)-1]; !last.Cached {
		t.Fatalf("explicit-defaults spec missed the cache: %+v", last)
	}
}

// TestCancelledJobNeverCached pins the partial-manifest rule: a job
// cancelled mid-grid flushes partial artifacts, and a repeat
// submission of the same spec recomputes instead of serving them.
func TestCancelledJobNeverCached(t *testing.T) {
	// While armed, the hook cancels the job after its first cell.
	var arm atomic.Bool
	arm.Store(true)
	var once sync.Once
	_, ts, cells := newCachedServer(t, Config{JobWorkers: 1}, func(j *Job, _ obs.Manifest) {
		if arm.Load() {
			once.Do(func() { j.Cancel() })
		}
	})

	spec := `{"experiment":"chaos","requests":40,"seed":3}`
	events := submitAndWait(t, ts, spec)
	last := events[len(events)-1]
	if last.Event != string(Cancelled) || !last.Partial {
		t.Fatalf("expected a partial cancellation, got %+v", last)
	}

	// Identical respec: must run fresh (no hit on partial artifacts).
	arm.Store(false)
	ranBefore := cells.Load()
	second := submitAndWait(t, ts, spec)
	slast := second[len(second)-1]
	if slast.Event != string(Done) {
		t.Fatalf("second run ended %q", slast.Event)
	}
	if slast.Cached {
		t.Fatal("partial result was served from cache")
	}
	if cells.Load() == ranBefore {
		t.Fatal("second run did not simulate")
	}
}

// TestCacheEvictionRecomputes sizes a second server's cache to hold
// exactly one job's artifacts, submits two distinct specs, and checks
// the evicted one recomputes on resubmission — the serving-layer view
// of the LRU byte budget.
func TestCacheEvictionRecomputes(t *testing.T) {
	specA := `{"experiment":"ablate-secondcheck","requests":40,"seed":5}`
	specB := `{"experiment":"ablate-secondcheck","requests":40,"seed":6}`

	// Measure one entry's artifact size on a throwaway server.
	_, ts0, _ := newCachedServer(t, Config{JobWorkers: 1}, nil)
	ev := submitAndWait(t, ts0, specA)
	job := ev[len(ev)-1].Job
	_, report := getBody(t, ts0.URL+"/jobs/"+job+"/report")
	_, runs := getBody(t, ts0.URL+"/runs/"+job)

	// Budget = one entry's payload + 512B slack: entry A fits (its
	// accounting overhead is below the slack), A plus B does not (B's
	// payload far exceeds it), so storing B must evict A.
	budget := int64(len(report) + len(runs) + 512)
	srv, ts, _ := newCachedServer(t, Config{JobWorkers: 1, CacheBytes: budget}, nil)
	if ev := submitAndWait(t, ts, specA); ev[len(ev)-1].Event != string(Done) {
		t.Fatalf("specA: %+v", ev[len(ev)-1])
	}
	if hit := submitAndWait(t, ts, specA); !hit[len(hit)-1].Cached {
		t.Fatal("specA did not fit the sized cache")
	}
	submitAndWait(t, ts, specB) // evicts A
	events := submitAndWait(t, ts, specA)
	if last := events[len(events)-1]; last.Cached {
		t.Fatalf("evicted entry served from cache: %+v", last)
	}
	st := srv.cache.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	if st.Bytes > budget {
		t.Fatalf("cache exceeds its budget %d: %+v", budget, st)
	}
}

// TestInflightDedupSingleFlight submits identical specs while the
// leader is deterministically parked mid-grid: every follower must
// attach to the leader's job (same ID, one simulation), and the dedup
// counter must account for all of them — with the memory cache on and
// off, since single-flight does not depend on it.
func TestInflightDedupSingleFlight(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cacheBytes int64
	}{{"default", 0}, {"no-memory-cache", -1}} {
		t.Run(tc.name, func(t *testing.T) { inflightDedup(t, tc.cacheBytes) })
	}
}

func inflightDedup(t *testing.T, cacheBytes int64) {
	gate := make(chan struct{})
	closeGate := sync.OnceFunc(func() { close(gate) })
	defer closeGate() // never leave the scheduler parked if the test bails

	var parked atomic.Bool
	srv, ts, cells := newCachedServer(t, Config{JobWorkers: 1, CacheBytes: cacheBytes}, func(_ *Job, _ obs.Manifest) {
		if parked.CompareAndSwap(false, true) {
			<-gate
		}
	})

	// chaos collects one manifest per cell, so the park hook engages on
	// the first cell (ablations collect none and would never park).
	spec := `{"experiment":"chaos","requests":40,"seed":9}`
	leaderCh := make(chan Event, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			errCh <- err
			return
		}
		defer resp.Body.Close()
		var last Event
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
				errCh <- err
				return
			}
		}
		if err := sc.Err(); err != nil {
			errCh <- err
			return
		}
		leaderCh <- last
	}()

	// Wait until the leader holds the single-flight slot, then pile on.
	for {
		srv.mu.Lock()
		n := len(srv.inflight)
		srv.mu.Unlock()
		if n == 1 {
			break
		}
		runtime.Gosched()
	}
	const followers = 4
	ids := make(chan string, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/jobs?stream=0", "application/json", strings.NewReader(spec))
			if err != nil {
				t.Error(err)
				ids <- ""
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != 202 {
				t.Errorf("follower status %d", resp.StatusCode)
				ids <- ""
				return
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				ids <- ""
				return
			}
			var st Status
			if err := json.Unmarshal(body, &st); err != nil {
				t.Error(err)
				ids <- ""
				return
			}
			ids <- st.ID
		}()
	}
	wg.Wait()
	closeGate()
	var last Event
	select {
	case err := <-errCh:
		t.Fatal(err)
	case last = <-leaderCh:
	}
	if last.Event != string(Done) {
		t.Fatalf("leader ended %q", last.Event)
	}
	for i := 0; i < followers; i++ {
		if id := <-ids; id != last.Job {
			t.Fatalf("follower got job %q, leader is %q", id, last.Job)
		}
	}
	// The chaos grid is 4 rates x 3 schemes: exactly one grid ran.
	if got := cells.Load(); got != 12 {
		t.Fatalf("%d cells ran for %d identical submissions; want the leader's 12", got, followers+1)
	}
	if v := srv.cacheDedup.Value(); v != followers {
		t.Fatalf("dedup counter = %d, want %d", v, followers)
	}

	// Once the leader is done its slot is released: with the memory
	// cache on, one more submission is a pure hit; with it off, it
	// recomputes.
	events := submitAndWait(t, ts, spec)
	flast := events[len(events)-1]
	if cacheBytes < 0 {
		if flast.Cached || cells.Load() != 24 {
			t.Fatalf("memory cache off: resubmission must recompute, got %+v after %d cells", flast, cells.Load())
		}
		return
	}
	if !flast.Cached {
		t.Fatalf("post-completion submission missed: %+v", flast)
	}

}

// TestCellWorkersInvariance runs one spec on servers with different
// shared-scheduler widths and pins byte-identical artifacts — the
// work-stealing half of the determinism contract, end to end.
func TestCellWorkersInvariance(t *testing.T) {
	var report, runs string
	for _, workers := range []int{1, 2, 4} {
		_, ts, _ := newCachedServer(t, Config{JobWorkers: 1, CellWorkers: workers}, nil)
		events := submitAndWait(t, ts, `{"experiment":"chaos","requests":40,"seed":3}`)
		last := events[len(events)-1]
		if last.Event != string(Done) {
			t.Fatalf("cellWorkers=%d: ended %q", workers, last.Event)
		}
		_, gotReport := getBody(t, ts.URL+"/jobs/"+last.Job+"/report")
		_, gotRuns := getBody(t, ts.URL+"/runs/"+last.Job)
		gotRuns = maskWallTime(gotRuns)
		if report == "" {
			report, runs = gotReport, gotRuns
			continue
		}
		if gotReport != report {
			t.Errorf("cellWorkers=%d: report differs", workers)
		}
		if gotRuns != runs {
			t.Errorf("cellWorkers=%d: manifests differ", workers)
		}
	}
}

// TestCacheDisabledByDefault pins library back-compat: a zero-value
// Config serves every submission as a fresh computation.
func TestCacheDisabledByDefault(t *testing.T) {
	srv := New(Config{QueueDepth: 4, JobWorkers: 1})
	var cells atomic.Int64
	srv.cellHook = func(*Job, obs.Manifest) { cells.Add(1) }
	srv.Start()
	defer srv.Stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := `{"experiment":"chaos","requests":40}`
	submitAndWait(t, ts, spec)
	after := cells.Load()
	events := submitAndWait(t, ts, spec)
	if last := events[len(events)-1]; last.Cached {
		t.Fatalf("cache hit with caching disabled: %+v", last)
	}
	if cells.Load() == after {
		t.Fatal("repeat submission did not recompute with caching disabled")
	}
}

// TestInvalidSpecNeverMintsKey pins the validate-before-enqueue fix at
// the HTTP level: a spec whose fault config is invalid is rejected
// with 400 and never occupies a queue slot or a single-flight slot.
func TestInvalidSpecNeverMintsKey(t *testing.T) {
	srv, ts, _ := newCachedServer(t, Config{JobWorkers: 1}, nil)

	resp := postJob(t, ts, `{"experiment":"chaos","faults":{"max_sense_retries":-1}}`, "")
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("invalid spec got %d, want 400", resp.StatusCode)
	}
	if v := srv.submitted.Value(); v != 0 {
		t.Fatalf("invalid spec was enqueued (submitted=%d)", v)
	}
	srv.mu.Lock()
	inflight := len(srv.inflight)
	srv.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("invalid spec minted a cache key (inflight=%d)", inflight)
	}
}

// TestDoneJobReleasesManifests: once a computed job is Done it serves
// /runs from the bytes rendered at completion and keeps only their run
// count, so its live collection holds no manifests. Its status must
// report the completed count and partial flag of the collection
// before the release, and /runs must be byte-identical to that
// collection's rendering.
func TestDoneJobReleasesManifests(t *testing.T) {
	var (
		mu      sync.Mutex
		before  []byte
		cells   int
		partial bool
	)
	// One cell worker: the last cell's hook sees the complete
	// collection, before the job renders and releases it.
	srv, ts, _ := newCachedServer(t, Config{JobWorkers: 1, CellWorkers: 1}, func(j *Job, _ obs.Manifest) {
		var b bytes.Buffer
		if err := obs.WriteJSON(&b, j.collect); err != nil {
			t.Error(err)
		}
		mu.Lock()
		before, cells, partial = b.Bytes(), j.collect.Len(), j.collect.Partial()
		mu.Unlock()
	})
	events := submitAndWait(t, ts, `{"experiment":"chaos","requests":30,"seed":11}`)
	last := events[len(events)-1]
	if last.Event != string(Done) || last.Cached {
		t.Fatalf("job ended %+v, want a computed done", last)
	}
	j, ok := srv.job(last.Job)
	if !ok {
		t.Fatalf("job %s not registered", last.Job)
	}
	if n, runs := j.collect.Len(), j.collect.Runs(); n != 0 || len(runs) != 0 {
		t.Fatalf("done job's collection holds %d manifests (%d runs), want none", n, len(runs))
	}

	mu.Lock()
	defer mu.Unlock()
	if cells != len(core.ChaosRates)*len(core.ChaosSchemes) {
		t.Fatalf("collection held %d runs before the release, want the whole chaos grid", cells)
	}
	if last.Completed != cells {
		t.Fatalf("done event reports %d completed, want %d", last.Completed, cells)
	}
	_, body := getBody(t, ts.URL+"/jobs/"+last.Job)
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("status %q: %v", body, err)
	}
	if st.Completed != cells || st.Partial != partial {
		t.Fatalf("status completed=%d partial=%v, want %d and %v as before the release", st.Completed, st.Partial, cells, partial)
	}
	if _, runs := getBody(t, ts.URL+"/runs/"+last.Job); runs != string(before) {
		t.Fatalf("/runs differs from the collection before the release:\n got %.200s\nwant %.200s", runs, before)
	}
}

// TestAblationJobServesRuns: an ablation sweeps one configuration
// knob, so every point shares its scheme, workload and wear; each
// point still records a manifest, streams a cell event and is served
// from /runs.
func TestAblationJobServesRuns(t *testing.T) {
	_, ts, _ := newCachedServer(t, Config{JobWorkers: 1}, nil)
	events := submitAndWait(t, ts, `{"experiment":"ablate-buffer","requests":30,"seed":11}`)
	cells := 0
	for _, e := range events {
		if e.Event == "cell" {
			cells++
		}
	}
	last := events[len(events)-1]
	// One cell per ECC buffer depth: 1, 2, 4, 8 and 16 slots.
	if last.Event != string(Done) || last.Completed != 5 || cells != 5 {
		t.Fatalf("terminal event %+v with %d cell events, want done/5/5", last, cells)
	}
	_, body := getBody(t, ts.URL+"/runs/"+last.Job)
	var coll obs.Collection
	if err := json.Unmarshal([]byte(body), &coll); err != nil {
		t.Fatalf("/runs %q: %v", body, err)
	}
	if n := len(coll.Runs()); n != 5 {
		t.Fatalf("/runs served %d runs, want 5", n)
	}
}
