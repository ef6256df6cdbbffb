package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/ssd"
)

// JobSpec is the POSTed description of one experiment job. It is the
// complete input of the run: the same spec executed here, by a later
// rifserve, or by a local `rifsim -fig <experiment> -requests ...
// -seed ...` invocation produces a byte-identical report, because the
// spec carries every value the deterministic simulator consumes and
// the serving layer adds nothing (worker count and host clocks never
// reach a simulation).
type JobSpec struct {
	// Experiment names the figure/study to run (core.ValidExperiments).
	Experiment string `json:"experiment"`
	// Requests is the host-request count per simulation (0 means the
	// rifsim default of 3000; negative is rejected).
	Requests int `json:"requests,omitempty"`
	// Seed drives every random stream (0 means the default seed 1 —
	// pass the explicit seed when replaying a manifest).
	Seed uint64 `json:"seed,omitempty"`
	// Workers is accepted for spec compatibility with rifsim but does
	// not size this server's parallelism: grid cells shard across the
	// server-wide work-stealing scheduler (Config.CellWorkers), so one
	// job's width cannot be provisioned against another's. Negative is
	// rejected; results are byte-identical for every value, which is
	// also why the value is excluded from the cache key.
	Workers int `json:"workers,omitempty"`
	// Full simulates the full 2-TiB array instead of the shrunken one.
	Full bool `json:"full,omitempty"`
	// Faults configures deterministic fault injection (rates validated
	// to [0,1]); the zero value injects nothing.
	Faults faults.Config `json:"faults,omitempty"`
}

// Params derives the RunParams the dispatcher consumes, after
// validating the spec. Defaults mirror the rifsim flags so omitted
// fields mean the same thing in both front-ends.
func (s JobSpec) Params() (core.RunParams, error) {
	if s.Experiment == "" {
		return core.RunParams{}, fmt.Errorf("serve: job spec missing experiment")
	}
	if !core.ValidExperiment(s.Experiment) {
		return core.RunParams{}, fmt.Errorf("serve: unknown experiment %q (valid: %v)",
			s.Experiment, core.ValidExperiments())
	}
	p := core.DefaultRunParams()
	p.Tool = "rifserve"
	p.Experiment = s.Experiment
	if s.Requests != 0 {
		p.Requests = s.Requests
	}
	if s.Seed != 0 {
		p.Seed = s.Seed
	}
	if s.Workers != 0 {
		p.Workers = s.Workers
	}
	p.Shrink = !s.Full
	p.Faults = s.Faults
	if err := p.Validate(); err != nil {
		return core.RunParams{}, err
	}
	// Validate the fully derived device config too, before the job can
	// occupy a queue slot or mint a cache key: RunParams.Validate
	// covers the host-side fields, but a spec is only well-formed if
	// the ssd.Config every cell will run under also validates. The
	// (scheme, pe) arguments are placeholders — experiments sweep them
	// per cell over values that never affect validity of the rest.
	if err := p.BuildConfig(ssd.Zero, 0).Validate(); err != nil {
		return core.RunParams{}, err
	}
	return p, nil
}

// decodeJobSpec reads one POSTed job spec, rejecting unknown fields,
// and derives its RunParams.
func decodeJobSpec(r io.Reader) (JobSpec, core.RunParams, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, core.RunParams{}, fmt.Errorf("serve: bad job spec: %w", err)
	}
	p, err := spec.Params()
	return spec, p, err
}

// State is a job's lifecycle position.
type State string

// Job lifecycle: Queued -> Running -> one of Done, Failed, Cancelled,
// Shed.
const (
	Queued    State = "queued"
	Running   State = "running"
	Done      State = "done"
	Failed    State = "failed"
	Cancelled State = "cancelled"
	// Shed is the graceful-drain terminal: the job was accepted but the
	// server began draining before it started. The client should
	// resubmit against the next server life — resubmission is idempotent
	// by content address, so it hits the cache or joins the leader if
	// the work happened after all.
	Shed State = "shed"
)

// Terminal reports whether the state is final. Exported for clients
// (rifload) that must distinguish a finished stream from a dropped
// one.
func (s State) Terminal() bool {
	return s == Done || s == Failed || s == Cancelled || s == Shed
}

// Event is one NDJSON line of a job's progress stream.
type Event struct {
	// Event is the transition: queued, running, cell (one grid cell's
	// manifest collected), done, failed or cancelled.
	Event string `json:"event"`
	Job   string `json:"job"`
	// Experiment echoes the spec on queued/terminal events.
	Experiment string `json:"experiment,omitempty"`
	// Completed counts manifests collected so far (cell + terminal
	// events). Completion order across a parallel grid is
	// scheduler-dependent; the count is monotonic.
	Completed int `json:"completed,omitempty"`
	// Scheme/Workload/PE identify the cell a cell event reports.
	Scheme   string `json:"scheme,omitempty"`
	Workload string `json:"workload,omitempty"`
	PE       int    `json:"pe,omitempty"`
	// Partial marks a cancelled job's flushed manifests as incomplete.
	Partial bool `json:"partial,omitempty"`
	// Cached marks a done event served from the result cache: the
	// job's artifacts are the stored bytes of an earlier identical
	// run, no simulation was performed.
	Cached bool `json:"cached,omitempty"`
	// Error carries the failure on failed events.
	Error string `json:"error,omitempty"`
}

// Job is one submitted experiment: its spec, its progress events, and
// (once finished) its report and manifests.
type Job struct {
	// ID is the server-assigned identity ("job-1", "job-2", ...).
	ID string
	// Spec is the submitted job description.
	Spec JobSpec

	mu     sync.Mutex
	state  State
	errMsg string
	report []byte
	// runsJSON, when non-nil, is the manifest-collection JSON served
	// verbatim by /runs/{id}: the stored bytes for cache-hit jobs, and
	// the bytes rendered once at completion for computed jobs. Serving
	// stored bytes (rather than re-rendering) is what keeps a cache
	// hit byte-identical to the run that populated it — Manifest.Config
	// decodes to a map, and re-encoding a map reorders its keys. Once
	// it is pinned the job keeps only these bytes and their run count,
	// cells: the live collection holds no manifests.
	runsJSON []byte
	cells    int
	events   []Event
	notify   chan struct{}

	// fromCache marks a job satisfied from the result cache without
	// running (its live collection stays empty).
	fromCache bool
	// key is the job's content address. Leader jobs carry it so
	// completion can populate the cache and clear the single-flight
	// slot.
	key resultcache.Key

	// collect gathers the job's per-run manifests until runsJSON is
	// pinned; reads are safe at any time (Collection is internally
	// locked).
	collect *obs.Collection
	// cancelled is the per-job half of the grid's stop hook.
	cancelled atomic.Bool
	// flushOnce guards the spool flush so cancellation racing normal
	// completion still writes exactly one manifest file.
	flushOnce sync.Once
}

func newJob(id string, spec JobSpec) *Job {
	j := &Job{
		ID:      id,
		Spec:    spec,
		state:   Queued,
		notify:  make(chan struct{}),
		collect: obs.NewCollection(),
	}
	j.publish(Event{Event: string(Queued), Experiment: spec.Experiment})
	return j
}

// newCachedJob materializes a job already satisfied by the result
// cache: born Done, carrying the stored report and manifest bytes of
// the identical earlier run, with no simulation behind it. Its event
// stream is queued -> done(cached), so clients that always stream see
// a coherent (if brief) lifecycle.
func newCachedJob(id string, spec JobSpec, e resultcache.Entry) *Job {
	j := newJob(id, spec)
	j.report = e.Report
	j.runsJSON = e.Runs
	j.cells = e.Cells
	j.fromCache = true
	j.setState(Done, Event{Completed: e.Cells, Cached: true})
	return j
}

// publish appends one event and wakes every stream reader. The job ID
// is stamped here so callers never repeat it.
func (j *Job) publish(e Event) {
	e.Job = j.ID
	j.mu.Lock()
	j.events = append(j.events, e)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

// setState transitions the job and publishes the matching event.
func (j *Job) setState(s State, e Event) {
	j.mu.Lock()
	j.state = s
	if e.Error != "" {
		j.errMsg = e.Error
	}
	j.mu.Unlock()
	e.Event = string(s)
	e.Experiment = j.Spec.Experiment
	j.publish(e)
}

// Cancel requests cancellation: the job's grid stops launching new
// cells at the next stop-hook poll. Already-running cells finish and
// their manifests are kept (flushed marked partial).
func (j *Job) Cancel() { j.cancelled.Store(true) }

// State reports the current lifecycle position and error message.
func (j *Job) State() (State, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg
}

// Report returns the finished job's text report (nil until terminal).
// The bytes are exactly what `rifsim -fig <experiment>` prints for
// the same spec.
func (j *Job) Report() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report
}

// runsBytes returns the job's pinned manifest-collection JSON (nil
// while a computed job is still running — /runs then renders the live
// collection instead).
func (j *Job) runsBytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.runsJSON
}

// pinRuns makes runs the job's /runs response and releases the live
// collection's manifests, keeping only their count, which it returns:
// a finished job holds one copy of its manifests, the rendered bytes.
// Under j.mu, so completed never sees the collection released before
// the pin.
func (j *Job) pinRuns(runs []byte) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.runsJSON = runs
	j.cells = j.collect.Len()
	j.collect.Release()
	return j.cells
}

// completed reports how many runs the job has finished: the pinned
// count once its manifests are rendered, the live collection's
// before.
func (j *Job) completed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.runsJSON != nil {
		return j.cells
	}
	return j.collect.Len()
}

// eventsSince returns events[from:] plus a channel that closes when
// more arrive; stream readers loop on it.
func (j *Job) eventsSince(from int) ([]Event, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.events[from:], j.notify
}

// Status is the JSON shape of GET /jobs and GET /jobs/{id}.
type Status struct {
	ID         string  `json:"id"`
	State      State   `json:"state"`
	Experiment string  `json:"experiment"`
	Seed       uint64  `json:"seed"`
	Requests   int     `json:"requests"`
	Completed  int     `json:"completed"`
	Partial    bool    `json:"partial,omitempty"`
	Cached     bool    `json:"cached,omitempty"`
	Error      string  `json:"error,omitempty"`
	Links      JobRefs `json:"links"`
}

// JobRefs are the per-job endpoints a client follows from a Status.
type JobRefs struct {
	Events string `json:"events"`
	Report string `json:"report"`
	Runs   string `json:"runs"`
}

// status snapshots the job for the REST views.
func (j *Job) status() Status {
	state, errMsg := j.State()
	return Status{
		ID:         j.ID,
		State:      state,
		Experiment: j.Spec.Experiment,
		Seed:       j.seed(),
		Requests:   j.requests(),
		Completed:  j.completed(),
		Partial:    j.collect.Partial(),
		Cached:     j.fromCache,
		Error:      errMsg,
		Links: JobRefs{
			Events: "/jobs/" + j.ID + "/events",
			Report: "/jobs/" + j.ID + "/report",
			Runs:   "/runs/" + j.ID,
		},
	}
}

// seed reports the effective seed (spec default applied).
func (j *Job) seed() uint64 {
	if j.Spec.Seed != 0 {
		return j.Spec.Seed
	}
	return core.DefaultRunParams().Seed
}

// requests reports the effective request count (spec default applied).
func (j *Job) requests() int {
	if j.Spec.Requests != 0 {
		return j.Spec.Requests
	}
	return core.DefaultRunParams().Requests
}
