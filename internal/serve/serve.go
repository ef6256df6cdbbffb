// Package serve is the long-running front-end of the experiment
// suite: an HTTP service that accepts experiment jobs, runs them on
// the deterministic fleet pool behind a bounded queue with
// backpressure, streams per-job progress as NDJSON, and exposes the
// observability subsystem's Prometheus exposition and run manifests.
//
// The serving layer is strictly host-side control flow: it decides
// when simulations start and stop but never feeds a value into one,
// so a job's results are byte-for-byte replayable from its spec (see
// JobSpec). Wall-clock time is confined to the HTTP boundary in
// cmd/rifserve; this package needs none at all.
package serve

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/resultcache"
)

// Config sizes the service.
type Config struct {
	// QueueDepth bounds the jobs waiting to run (beyond the ones
	// running). A full queue rejects submissions with 429 and a
	// Retry-After header instead of buffering without bound. 0 means
	// DefaultQueueDepth.
	QueueDepth int
	// JobWorkers is the number of jobs run concurrently (each job's
	// grid additionally shards across its own fleet pool). 0 means 1.
	JobWorkers int
	// SpoolDir, when non-empty, receives one <job-id>.json manifest
	// collection per finished job — cancelled jobs flush what
	// completed, marked partial. Empty disables spooling.
	SpoolDir string
	// Labels are added to every /metrics sample (values are escaped
	// for the exposition format, so hostile strings stay well-formed).
	Labels map[string]string
	// CacheBytes bounds the content-addressed result cache. A repeat
	// submission of an identical effective configuration is answered
	// from the cache with byte-identical artifacts, and concurrent
	// identical submissions single-flight onto one computation.
	// <= 0 disables caching and deduplication entirely (the library
	// default; cmd/rifserve passes DefaultCacheBytes).
	CacheBytes int64
	// CellWorkers sizes the work-stealing scheduler every job's grid
	// cells share, decoupling job admission (JobWorkers) from
	// simulation parallelism: a large job's cells interleave with a
	// small job's instead of monopolizing a private pool. 0 means one
	// worker per CPU.
	CellWorkers int
	// StoreDir, when non-empty, enables the disk tier of the result
	// cache: completed artifacts are written as content-addressed
	// files (atomic temp-file + rename + fsync, verified by re-hashing
	// on read) and survive restarts. Requires nothing else: the memory
	// cache may be disabled and the store still serves repeats.
	StoreDir string
	// JournalPath, when non-empty, enables the write-ahead job
	// journal: accepted specs are appended (and fsynced) before
	// admission and completion records after caching, and on restart
	// the server replays it — completed jobs rematerialize from the
	// store, incomplete jobs re-enqueue and recompute. Empty defaults
	// to <StoreDir>/journal.ndjson when StoreDir is set.
	JournalPath string
	// StorageFaults injects seeded host-side storage failures (ENOSPC,
	// torn writes, fsync errors, slow I/O, bit rot) into the store and
	// journal, driven by StorageFaultSeed. The zero value injects
	// nothing. Persistence degrades under faults — the server sheds to
	// memory-only operation with a counter and a warning — but job
	// results and client-visible bytes are never affected.
	StorageFaults faults.StorageConfig
	// StorageFaultSeed seeds the storage-fault injector (0 means 1).
	StorageFaultSeed uint64
	// StoreSleep services injected slow-I/O stalls; nil drops them.
	// cmd/rifserve passes time.Sleep — this package itself stays
	// wall-clock-free.
	StoreSleep func(time.Duration)
	// Logf receives operational warnings (persistence degradation,
	// replay anomalies). Nil discards them.
	Logf func(format string, args ...any)
}

// DefaultQueueDepth bounds the pending-job queue when Config leaves
// QueueDepth zero.
const DefaultQueueDepth = 8

// DefaultCacheBytes is the result-cache budget cmd/rifserve uses
// unless -cache-size overrides it.
const DefaultCacheBytes = 256 << 20

// Server is the rifserve HTTP service: a bounded job queue, the
// worker loop draining it, and the REST/streaming views over jobs.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	queue chan *Job
	quit  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int
	// cache/keyer/inflight implement content addressing: cache maps an
	// address to stored artifacts, keyer canonicalizes specs (its
	// buffer is reused, so it is guarded by mu), and inflight holds the
	// leader job computing each address so identical concurrent
	// submissions attach to it instead of recomputing. keyer/inflight
	// exist whenever addressing is needed (memory cache OR disk
	// store); cache always exists and stores nothing when
	// CacheBytes <= 0.
	cache    *resultcache.Cache
	keyer    *resultcache.Keyer
	inflight map[resultcache.Key]*Job

	// store/journal are the durability tier (nil when disabled; a nil
	// store reads as empty and writes nowhere):
	// content-addressed artifacts on disk and the write-ahead job
	// journal. recovered holds journal-replayed incomplete jobs that
	// Start re-enqueues. shed marks a graceful Drain in progress:
	// in-flight grids run to completion and queued jobs end "shed"
	// instead of "cancelled".
	store     *resultcache.Store
	journal   *journal
	recovered []*Job
	shed      atomic.Bool

	// sched is the work-stealing scheduler all jobs' grid cells share;
	// created in Start, drained in Stop.
	sched *fleet.Scheduler

	// cellHook, when non-nil, runs synchronously after each cell event
	// on the job's grid worker goroutine. Tests use it to cancel
	// deterministically mid-job (the next cell's stop poll is ordered
	// after the hook returns); it must not block on the server's own
	// shutdown.
	cellHook func(j *Job, m obs.Manifest)

	submitted  *obs.Counter
	rejected   *obs.Counter
	completed  *obs.Counter
	failed     *obs.Counter
	cancelled  *obs.Counter
	queueDepth *obs.Gauge
	running    *obs.Gauge
	jobRuns    *obs.Histogram

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheDedup     *obs.Counter
	cacheBytes     *obs.Gauge
	cacheEntries   *obs.Gauge
	cacheEvictions *obs.Gauge
	cellSteals     *obs.Gauge

	storeHits        *obs.Counter
	storeErrors      *obs.Counter
	journalErrors    *obs.Counter
	recoveredJobs    *obs.Counter
	shedJobs         *obs.Counter
	persistDegraded  *obs.Gauge
	storeQuarantined *obs.Gauge
	storeVerifyFails *obs.Gauge
	storeSlowIO      *obs.Gauge
}

// logf forwards an operational warning to the configured sink.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// degradePersist records one persistence failure and warns: the
// failure ladder's bottom rung is memory-only serving, never a panic
// and never corrupt bytes.
func (s *Server) degradePersist(what string, err error) {
	s.persistDegraded.Set(1)
	s.logf("rifserve: %s failed, shedding to memory-only operation: %v", what, err)
}

// New builds a stopped server; call Start to begin draining the
// queue.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 1
	}
	reg := obs.NewRegistry()
	s := &Server{
		cfg:        cfg,
		reg:        reg,
		queue:      make(chan *Job, cfg.QueueDepth),
		quit:       make(chan struct{}),
		jobs:       map[string]*Job{},
		cache:      resultcache.New(cfg.CacheBytes),
		submitted:  reg.Counter("rifserve_jobs_submitted_total"),
		rejected:   reg.Counter("rifserve_jobs_rejected_total"),
		completed:  reg.Counter("rifserve_jobs_completed_total"),
		failed:     reg.Counter("rifserve_jobs_failed_total"),
		cancelled:  reg.Counter("rifserve_jobs_cancelled_total"),
		queueDepth: reg.Gauge("rifserve_queue_depth"),
		running:    reg.Gauge("rifserve_jobs_running"),
		jobRuns:    reg.Histogram("rifserve_job_manifests"),

		cacheHits:      reg.Counter("rifserve_cache_hits_total"),
		cacheMisses:    reg.Counter("rifserve_cache_misses_total"),
		cacheDedup:     reg.Counter("rifserve_cache_inflight_dedup_total"),
		cacheBytes:     reg.Gauge("rifserve_cache_bytes"),
		cacheEntries:   reg.Gauge("rifserve_cache_entries"),
		cacheEvictions: reg.Gauge("rifserve_cache_evictions"),
		cellSteals:     reg.Gauge("rifserve_cell_steals"),

		storeHits:        reg.Counter("rifserve_store_hits_total"),
		storeErrors:      reg.Counter("rifserve_store_errors_total"),
		journalErrors:    reg.Counter("rifserve_journal_errors_total"),
		recoveredJobs:    reg.Counter("rifserve_jobs_recovered_total"),
		shedJobs:         reg.Counter("rifserve_jobs_shed_total"),
		persistDegraded:  reg.Gauge("rifserve_persist_degraded"),
		storeQuarantined: reg.Gauge("rifserve_store_quarantined"),
		storeVerifyFails: reg.Gauge("rifserve_store_verify_failures"),
		storeSlowIO:      reg.Gauge("rifserve_store_slow_io"),
	}
	persist := cfg.StoreDir != "" || cfg.JournalPath != ""
	if cfg.CacheBytes > 0 || persist {
		s.keyer = resultcache.NewKeyer()
		s.inflight = map[resultcache.Key]*Job{}
	}
	if persist {
		s.openPersistence()
	}
	return s
}

// openPersistence wires the disk store and write-ahead journal and
// replays the journal into registered jobs. Every failure degrades to
// memory-only operation with a warning — a server that cannot reach
// its store still boots and serves, it just starts cold.
func (s *Server) openPersistence() {
	seed := s.cfg.StorageFaultSeed
	if seed == 0 {
		seed = 1
	}
	inj := faults.NewStorage(s.cfg.StorageFaults, seed)
	if s.cfg.StoreDir != "" {
		store, err := resultcache.OpenStore(s.cfg.StoreDir, resultcache.StoreOptions{
			Faults: inj,
			Sleep:  s.cfg.StoreSleep,
		})
		if err != nil {
			s.storeErrors.Inc()
			s.degradePersist("opening result store", err)
		} else {
			s.store = store
		}
	}
	path := s.cfg.JournalPath
	if path == "" {
		path = filepath.Join(s.cfg.StoreDir, "journal.ndjson")
	}
	jr, records, err := openJournal(path, inj)
	if err != nil {
		s.journalErrors.Inc()
		s.degradePersist("opening job journal", fmt.Errorf("%w: %w", errJournalReplay, err))
		return
	}
	s.journal = jr
	s.replay(records)
}

// replay folds the journal into the server's job table: done jobs
// rematerialize from the store under their original IDs (warming the
// memory cache), incomplete jobs re-register and queue for
// recomputation, terminal jobs are skipped, and the ID counter
// advances past everything journaled. Runs in New, before any worker
// or handler exists, so no locking is needed.
func (s *Server) replay(records []journalRecord) {
	st := foldJournal(records)
	s.nextID = st.maxID
	for _, id := range st.order {
		spec := *st.accepted[id]
		if st.terminal[id] {
			s.replayDone(id, spec, st.done[id])
			continue
		}
		j := newJob(id, spec)
		j.journaled = true
		p, err := spec.Params()
		if err != nil {
			// The spec validated when accepted; a journal that replays
			// an invalid one was tampered with or crosses an
			// incompatible upgrade. Skip it rather than crash-loop.
			s.logf("rifserve: journal replay: job %s spec no longer valid, skipping: %v", id, err)
			continue
		}
		if s.keyer != nil {
			j.key = s.keyer.Key(spec.Experiment, p)
			j.hasKey = true
			if _, ok := s.inflight[j.key]; !ok {
				s.inflight[j.key] = j
			}
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
		s.recovered = append(s.recovered, j)
		s.recoveredJobs.Inc()
	}
}

// replayDone rematerializes one journaled-complete job from the disk
// store so its /report and /runs endpoints survive the restart. A
// missing or corrupt entry only costs the warm start: the client
// already received its artifacts in the previous life, and a future
// identical submission recomputes.
func (s *Server) replayDone(id string, spec JobSpec, rec journalRecord) {
	if s.store == nil || rec.Op != opDone {
		return
	}
	raw, err := hex.DecodeString(rec.Key)
	if err != nil || len(raw) != len(resultcache.Key{}) {
		s.logf("rifserve: journal replay: job %s has malformed store key %q", id, rec.Key)
		return
	}
	var key resultcache.Key
	copy(key[:], raw)
	e, ok, err := s.store.Get(key)
	if err != nil {
		s.storeErrors.Inc()
		s.logf("rifserve: journal replay: job %s entry unreadable (serving cold): %v", id, err)
		return
	}
	if !ok {
		return
	}
	s.cache.Put(key, e)
	j := newCachedJob(id, spec, e)
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.recoveredJobs.Inc()
}

// appendJournal writes one WAL record, folding any failure into the
// degradation ladder (counter + warning, journal disables itself).
func (s *Server) appendJournal(rec journalRecord) {
	if err := s.journal.append(rec); err != nil {
		s.journalErrors.Inc()
		s.degradePersist("journal append", err)
	}
}

// Start launches the shared cell scheduler and the job workers, and
// re-enqueues any journal-replayed incomplete jobs. Safe to call once.
func (s *Server) Start() {
	s.sched = fleet.NewScheduler(s.cfg.CellWorkers)
	for w := 0; w < s.cfg.JobWorkers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				select {
				case <-s.quit:
					return
				case j := <-s.queue:
					s.queueDepth.Set(int64(len(s.queue)))
					s.runJob(j)
				}
			}
		}()
	}
	if len(s.recovered) == 0 {
		return
	}
	recovered := s.recovered
	s.recovered = nil
	s.wg.Add(1)
	// Replayed jobs feed from their own goroutine: they may outnumber
	// the queue depth, and blocking Start on a full queue would wedge
	// startup. A shutdown mid-feed resolves the unfed remainder like any
	// other queued job.
	go func() {
		defer s.wg.Done()
		for i, j := range recovered {
			select {
			case s.queue <- j:
				s.submitted.Inc()
				s.queueDepth.Set(int64(len(s.queue)))
			case <-s.quit:
				for _, rest := range recovered[i:] {
					s.finishCancelled(rest)
				}
				return
			}
		}
	}()
}

// Stop drains the service for shutdown: no new jobs start, in-flight
// jobs are cancelled through the fleet stop hook (already-running
// grid cells finish, so their manifests stay valid), their partial
// collections are flushed exactly once, and still-queued jobs are
// marked cancelled. Blocks until every worker has returned; safe to
// call more than once.
func (s *Server) Stop() {
	s.once.Do(func() { close(s.quit) })
	s.mu.Lock()
	for _, id := range s.order {
		s.jobs[id].Cancel()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.drainQueue()
	if s.sched != nil {
		// All job workers have returned, so no grid can still be
		// submitting; release the cell workers.
		s.sched.Stop()
	}
	s.closePersist()
}

// Drain performs graceful shutdown (the SIGTERM path): no new
// submissions are accepted, in-flight jobs run to completion and are
// journaled and cached like any other, still-queued jobs end with a
// terminal "shed" event, and the journal is fsynced closed before
// return. Blocks until every worker has returned; safe alongside or
// after Stop (jobs already cancelled keep Stop's semantics).
func (s *Server) Drain() {
	s.shed.Store(true)
	s.once.Do(func() { close(s.quit) })
	s.wg.Wait()
	s.drainQueue()
	if s.sched != nil {
		s.sched.Stop()
	}
	s.closePersist()
}

// drainQueue resolves every still-queued job with its terminal state
// (shed during a graceful Drain, cancelled otherwise). Called by both
// shutdown paths after the workers return, and by a submission that
// lands its queue send after shutdown already drained.
func (s *Server) drainQueue() {
	for {
		select {
		case j := <-s.queue:
			s.finishCancelled(j)
		default:
			s.queueDepth.Set(int64(len(s.queue)))
			return
		}
	}
}

// closePersist fsyncs and closes the journal; idempotent and nil-safe,
// so both shutdown paths call it unconditionally.
func (s *Server) closePersist() {
	if err := s.journal.close(); err != nil {
		s.journalErrors.Inc()
		s.logf("rifserve: journal close: %v", err)
	}
}

// draining reports whether shutdown (Stop or Drain) has been
// requested; submissions are refused once it is set.
func (s *Server) draining() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

// stopping is the server-wide half of every grid's stop hook: true
// once a hard Stop is under way, but false during a graceful Drain —
// draining lets in-flight grids run to completion while the closed
// quit channel keeps queued work from starting.
func (s *Server) stopping() bool {
	return s.draining() && !s.shed.Load()
}

// submit resolves a validated spec to a job: a cache hit materializes
// a Done job from stored bytes, an identical in-flight submission
// attaches to its leader, and everything else registers and enqueues a
// new job (or reports queue saturation). p must be the params spec
// validated to — submit canonicalizes them into the content address.
func (s *Server) submit(spec JobSpec, p core.RunParams) (*Job, bool) {
	s.mu.Lock()
	var key resultcache.Key
	if s.keyer != nil {
		key = s.keyer.Key(spec.Experiment, p)
		if j, ok := s.memoryTierLocked(spec, key); ok {
			s.mu.Unlock()
			return j, true
		}
	}
	s.mu.Unlock()

	if s.keyer != nil {
		// The disk-tier read runs outside s.mu: store I/O (and injected
		// slow-I/O stalls) must never block every other handler on the
		// job table.
		e, ok, err := s.store.Get(key)
		if err != nil {
			// Verification failed (the entry is already quarantined)
			// or the read itself erred; the key now reads as absent
			// and the job recomputes — corrupt bytes are never served.
			s.storeErrors.Inc()
			s.logf("rifserve: store read: %v", err)
		}
		if ok {
			s.mu.Lock()
			s.cache.Put(key, e)
			j := s.registerCached(spec, e)
			s.mu.Unlock()
			s.storeHits.Inc()
			return j, true
		}
	}

	s.mu.Lock()
	if s.keyer != nil {
		// Re-check the memory tiers: an identical submission may have
		// completed or become leader while the disk read ran unlocked —
		// without this, two concurrent identical misses would both
		// become single-flight leaders.
		if j, ok := s.memoryTierLocked(spec, key); ok {
			s.mu.Unlock()
			return j, true
		}
	}
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	j := newJob(id, spec)
	if s.keyer != nil {
		j.key = key
		j.hasKey = true
		s.inflight[key] = j
		s.cacheMisses.Inc()
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	// WAL discipline: the accept record is durable before the job can be
	// admitted, so a crash never leaves accepted work the journal has
	// never heard of. A rejection appends a terminal record immediately,
	// so replay will not resurrect a job its client saw refused.
	if s.journal != nil {
		j.journaled = true
		s.appendJournal(journalRecord{Op: opAccept, ID: id, Spec: &j.Spec})
	}
	select {
	case s.queue <- j:
		s.submitted.Inc()
		s.queueDepth.Set(int64(len(s.queue)))
		if s.draining() {
			// Shutdown may have drained the queue and returned before
			// this send landed (handleSubmit's draining() check races
			// close(quit)). Re-drain so the job gets its terminal event
			// and journal record instead of sitting Queued forever with
			// a hung NDJSON stream.
			s.drainQueue()
		}
		return j, true
	default:
		s.rejected.Inc()
		// Un-register by ID: a rejected job was never accepted. (The
		// ID itself is not reused — concurrent submissions may already
		// hold later ones.)
		s.mu.Lock()
		delete(s.jobs, id)
		for i, oid := range s.order {
			if oid == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		s.clearInflight(j)
		if j.journaled {
			s.appendJournal(journalRecord{Op: opRejected, ID: id})
		}
		return nil, false
	}
}

// memoryTierLocked resolves a content address against the memory
// tiers: a cache hit registers and returns a Done job, an identical
// in-flight submission returns its single-flight leader — N identical
// concurrent submissions run one simulation; the other N-1 callers
// stream the leader's progress (and share its job ID). Caller holds
// s.mu.
func (s *Server) memoryTierLocked(spec JobSpec, key resultcache.Key) (*Job, bool) {
	if e, ok := s.cache.Get(key); ok {
		j := s.registerCached(spec, e)
		s.cacheHits.Inc()
		return j, true
	}
	if leader, ok := s.inflight[key]; ok {
		s.cacheDedup.Inc()
		return leader, true
	}
	return nil, false
}

// registerCached registers a job satisfied without running — a memory-
// or disk-tier hit. Never journaled: it was never admitted, and its
// artifacts already live under their content address. Caller holds
// s.mu.
func (s *Server) registerCached(spec JobSpec, e resultcache.Entry) *Job {
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	j := newCachedJob(id, spec, e)
	s.jobs[id] = j
	s.order = append(s.order, id)
	return j
}

// retryAfterHint derives the Retry-After a 429 advertises from the
// current backlog: one second per queued job, floored at one — a crude
// but monotone signal that a deeper queue warrants a longer back-off.
// Clients (rifload) prefer it over their own schedule.
func (s *Server) retryAfterHint() string {
	n := len(s.queue)
	if n < 1 {
		n = 1
	}
	return strconv.Itoa(n)
}

// clearInflight releases a leader job's single-flight slot (no-op for
// jobs without a key, or when a newer leader already replaced it).
func (s *Server) clearInflight(j *Job) {
	if !j.hasKey {
		return
	}
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
}

// job looks up a registered job by ID.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// runJob executes one job through the shared experiment dispatcher.
func (s *Server) runJob(j *Job) {
	if s.draining() || j.cancelled.Load() {
		s.finishCancelled(j)
		return
	}
	p, err := j.Spec.Params()
	if err != nil {
		// Specs are validated at submission; re-deriving cannot fail
		// unless the job was mutated, which would be a server bug.
		j.setState(Failed, Event{Error: err.Error()})
		s.failed.Inc()
		return
	}
	s.running.Add(1)
	defer s.running.Add(-1)

	j.collect.SetOnAdd(func(m obs.Manifest) {
		j.publish(Event{
			Event:     "cell",
			Completed: j.collect.Len(),
			Scheme:    m.Scheme,
			Workload:  m.Workload,
			PE:        m.PECycles,
		})
		if s.cellHook != nil {
			s.cellHook(j, m)
		}
	})
	p.Collect = j.collect
	p.Stop = fleet.StopAny(s.stopping, j.cancelled.Load)
	p.Pool = s.sched
	j.setState(Running, Event{})

	var report bytes.Buffer
	runErr := core.RunExperiment(&report, j.Spec.Experiment, p)

	j.mu.Lock()
	j.report = report.Bytes()
	j.mu.Unlock()

	switch {
	case errors.Is(runErr, fleet.ErrStopped):
		j.collect.SetPartial(true)
		s.flush(j)
		s.clearInflight(j)
		if j.journaled {
			s.appendJournal(journalRecord{Op: opCancel, ID: j.ID})
		}
		s.cancelled.Inc()
		j.setState(Cancelled, Event{Completed: j.collect.Len(), Partial: true})
	case runErr != nil:
		s.flush(j)
		s.clearInflight(j)
		if j.journaled {
			s.appendJournal(journalRecord{Op: opFailed, ID: j.ID, Error: runErr.Error()})
		}
		s.failed.Inc()
		j.setState(Failed, Event{Error: runErr.Error(), Completed: j.collect.Len()})
	default:
		// One render serves the spool file, /runs and the result cache.
		runs, err := j.collect.JSON()
		if s.cfg.SpoolDir != "" {
			j.flushOnce.Do(func() { s.spool(j, runs, err) })
		}
		s.storeResult(j, runs, err)
		cells := j.completed()
		s.completed.Inc()
		s.jobRuns.Observe(float64(cells))
		j.setState(Done, Event{Completed: cells})
	}
}

// storeResult takes a completed job's rendered manifest collection
// (Collection.JSON: one pass, into bytes sized exactly, since the job
// and the cache keep them for their lifetime) and the render's error,
// pins those bytes as the job's /runs response (releasing the
// collection's manifests), and populates the result cache (memory and
// disk tiers) under the job's content address before releasing its
// single-flight slot. Only
// complete results ever reach either tier: cancelled (partial) and
// failed jobs release the slot without storing, so a later identical
// submission recomputes. The done journal record lands last — after
// caching — so replay never trusts a completion whose artifacts were
// not at least attempted on disk.
func (s *Server) storeResult(j *Job, runs []byte, err error) {
	if err != nil {
		// Rendering a collection to a buffer cannot fail short of a
		// marshalling bug; degrade to uncached rather than taking the
		// job down with an artifact-plumbing error.
		s.clearInflight(j)
		return
	}
	cells := j.pinRuns(runs)
	if j.hasKey {
		e := resultcache.Entry{
			Report: j.Report(),
			Runs:   runs,
			Cells:  cells,
		}
		s.cache.Put(j.key, e)
		if err := s.store.Put(j.key, e); err != nil {
			// The artifacts still serve from memory; only durability
			// across a restart is lost.
			s.storeErrors.Inc()
			s.degradePersist("store write", err)
		}
	}
	if j.journaled {
		s.appendJournal(journalRecord{
			Op:    opDone,
			ID:    j.ID,
			Key:   hex.EncodeToString(j.key[:]),
			Cells: cells,
		})
	}
	s.clearInflight(j)
}

// finishCancelled resolves a job that never ran (drained from the
// queue or cancelled before start) and flushes its (empty or partial)
// collection exactly once. During a graceful Drain a queued job that
// was not individually cancelled ends "shed" — the accepted-but-
// unstarted terminal that tells the client to resubmit — instead of
// "cancelled".
func (s *Server) finishCancelled(j *Job) {
	j.collect.SetPartial(true)
	s.flush(j)
	s.clearInflight(j)
	if s.shed.Load() && !j.cancelled.Load() {
		if j.journaled {
			s.appendJournal(journalRecord{Op: opShed, ID: j.ID})
		}
		s.shedJobs.Inc()
		j.setState(Shed, Event{Completed: j.collect.Len(), Partial: true})
		return
	}
	if j.journaled {
		s.appendJournal(journalRecord{Op: opCancel, ID: j.ID})
	}
	s.cancelled.Inc()
	j.setState(Cancelled, Event{Completed: j.collect.Len(), Partial: true})
}

// flush writes the job's manifest collection to the spool directory.
// flushOnce guarantees a job racing cancellation and completion still
// produces exactly one file; the partial flag is set (or not) before
// the single write, so a spool file says "partial": true at most
// once.
func (s *Server) flush(j *Job) {
	if s.cfg.SpoolDir == "" {
		return
	}
	j.flushOnce.Do(func() {
		runs, err := j.collect.JSON()
		s.spool(j, runs, err)
	})
}

// spool writes a job's rendered manifest collection to its spool
// file, or records the render's or the write's error on the job. The
// caller holds the job's flushOnce.
func (s *Server) spool(j *Job, runs []byte, err error) {
	if err == nil {
		err = os.WriteFile(filepath.Join(s.cfg.SpoolDir, j.ID+".json"), runs, 0o666)
	}
	if err != nil {
		j.mu.Lock()
		j.errMsg = "spool: " + err.Error()
		j.mu.Unlock()
	}
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /runs/{id}", s.handleRuns)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /experiments", s.handleExperiments)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// handleSubmit accepts a job spec. The response is an NDJSON progress
// stream that follows the job to its terminal event; with ?stream=0
// it is an immediate 202 with the job's status instead. A full queue
// answers 429 with a Retry-After hint — the backpressure contract
// that keeps a burst of submissions from buffering without bound.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, p, err := decodeJobSpec(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if s.draining() {
		http.Error(w, "serve: shutting down", http.StatusServiceUnavailable)
		return
	}
	j, ok := s.submit(spec, p)
	if !ok {
		w.Header().Set("Retry-After", s.retryAfterHint())
		http.Error(w, "serve: job queue full", http.StatusTooManyRequests)
		return
	}
	if r.URL.Query().Get("stream") == "0" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		//riflint:allow droppederr -- response write: the client went away, nothing to recover
		obs.WriteJSON(w, j.status())
		return
	}
	s.streamEvents(w, r, j)
}

// handleList returns every known job's status in submission order.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	statuses := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		statuses = append(statuses, j.status())
	}
	w.Header().Set("Content-Type", "application/json")
	//riflint:allow droppederr -- response write: the client went away, nothing to recover
	obs.WriteJSON(w, statuses)
}

// handleStatus returns one job's status.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	//riflint:allow droppederr -- response write: the client went away, nothing to recover
	obs.WriteJSON(w, j.status())
}

// handleCancel requests cancellation of a queued or running job.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	j.Cancel()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	//riflint:allow droppederr -- response write: the client went away, nothing to recover
	obs.WriteJSON(w, j.status())
}

// handleEvents streams a job's progress as NDJSON from its first
// event; it replays history for late subscribers and follows the job
// to its terminal event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	s.streamEvents(w, r, j)
}

// handleReport serves the finished job's text report — the exact
// bytes `rifsim -fig <experiment>` prints for the same spec.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	state, _ := j.State()
	if !state.Terminal() {
		http.Error(w, "serve: job not finished", http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	//riflint:allow droppederr -- response write: the client went away, nothing to recover
	w.Write(j.Report())
}

// handleRuns serves the job's manifest collection (the same JSON
// `rifsim -metrics` writes): complete after Done, the finished cells
// (marked partial) after cancellation, and whatever has been
// collected so far while running. Finished jobs serve the bytes
// rendered (or cached) at completion verbatim, so a cache hit is
// byte-identical to the run that populated it.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if pinned := j.runsBytes(); pinned != nil {
		//riflint:allow droppederr -- response write: the client went away, nothing to recover
		w.Write(pinned)
		return
	}
	//riflint:allow droppederr -- response write: the client went away, nothing to recover
	j.collect.WriteJSON(w)
}

// handleMetrics serves the server registry in the Prometheus text
// exposition format with the configured shared labels. Cache
// occupancy and scheduler steal counts are sampled into their gauges
// at scrape time — they live in their own subsystems, not on the
// request path.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	cst := s.cache.Stats()
	s.cacheBytes.Set(cst.Bytes)
	s.cacheEntries.Set(int64(cst.Entries))
	s.cacheEvictions.Set(cst.Evictions)
	if sched := s.sched; sched != nil {
		s.cellSteals.Set(sched.Steals())
	}
	sst := s.store.Stats()
	s.storeQuarantined.Set(sst.Quarantined)
	s.storeVerifyFails.Set(sst.VerifyFailures)
	s.storeSlowIO.Set(sst.SlowIO)
	if s.journal.isDegraded() {
		s.persistDegraded.Set(1)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	//riflint:allow droppederr -- response write: the client went away, nothing to recover
	s.reg.Snapshot().WritePrometheus(w, s.cfg.Labels)
}

// handleExperiments lists the experiments a job spec may name.
func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	//riflint:allow droppederr -- response write: the client went away, nothing to recover
	obs.WriteJSON(w, core.ValidExperiments())
}

// handleHealth is the liveness probe.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	//riflint:allow droppederr -- response write: the client went away, nothing to recover
	fmt.Fprintln(w, "ok")
}

// streamEvents writes a job's events as NDJSON, flushing after each
// batch, until the job reaches a terminal state or the client goes
// away. Purely event-driven: it blocks on the job's notify channel,
// not on a poll timer, so the serving layer needs no wall clock.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		events, more := j.eventsSince(next)
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		next += len(events)
		if flusher != nil {
			flusher.Flush()
		}
		if len(events) > 0 && State(events[len(events)-1].Event).Terminal() {
			return
		}
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}
