package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/replay"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
)

// LoadConfig describes one load run against a rifserve instance.
type LoadConfig struct {
	// URL is the rifserve base URL (no trailing slash).
	URL string
	// Experiment/Requests shape every submitted spec.
	Experiment string
	Requests   int
	// Submissions is the total number of jobs to submit.
	Submissions int
	// Clients is the number of concurrent submitters.
	Clients int
	// HotSpecs is the size of the repeated-spec pool; HitRatio is the
	// probability a submission draws from it instead of minting a
	// never-seen spec. After warmup, hot submissions are answered from
	// the server's result cache (when enabled).
	HotSpecs int
	HitRatio float64
	// Rate paces submissions (jobs/second) through a replay arrival
	// process; 0 submits as fast as the clients drain. Arrivals selects
	// the process: "poisson" (default) or "fixed".
	Rate     float64
	Arrivals string
	// Seed drives the hit/miss mix and the Poisson arrival clock.
	Seed uint64
	// Verify cross-checks artifacts: for every spec submitted more than
	// once, the /report bytes must be identical across submissions, and
	// the /runs bytes identical modulo the wall_time_s host-noise field.
	Verify bool
	// Timeout bounds each HTTP request, progress stream included; a
	// request that exceeds it counts as a dropped stream and is retried.
	// 0 means no timeout. Ignored when Client is set.
	Timeout time.Duration
	// Retries bounds the re-submissions attempted per job after a
	// retryable failure (transport error, 5xx, 429, dropped stream,
	// cancelled/shed terminal). Resubmission is idempotent: the spec's
	// content address means a retry hits the cache or joins the
	// single-flight leader if the first attempt's work survived. 0
	// disables retry.
	Retries int
	// Backoff is the initial retry delay, doubled per attempt with full
	// jitter, capped at MaxBackoff; a server-sent Retry-After is
	// honored in preference to this schedule. Zero values default to
	// 100ms and 5s when Retries > 0.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Client overrides the HTTP client (nil means a client honoring
	// Timeout).
	Client *http.Client
}

// LatencySummary is the client-observed submit-to-terminal latency
// distribution in milliseconds.
type LatencySummary struct {
	P50  float64 `json:"p50_ms"`
	P90  float64 `json:"p90_ms"`
	P99  float64 `json:"p99_ms"`
	Max  float64 `json:"max_ms"`
	Mean float64 `json:"mean_ms"`
}

// Summary is the load run's result, printed as JSON by the CLI.
type Summary struct {
	Submissions    int            `json:"submissions"`
	Hits           int64          `json:"hits"`
	Misses         int64          `json:"misses"`
	Errors         int64          `json:"errors"`
	Retries        int64          `json:"retries"`
	VerifyFailures int64          `json:"verify_failures"`
	ElapsedS       float64        `json:"elapsed_s"`
	JobsPerSec     float64        `json:"jobs_per_s"`
	Latency        LatencySummary `json:"latency"`
	LastError      string         `json:"last_error,omitempty"`
}

// submission is one unit of client work: the spec body and the stable
// identity verification groups artifacts under.
type submission struct {
	specID int
	spec   string
}

// workerResult accumulates one client's counts; merged after the run
// so the hot path never contends on shared counters.
type workerResult struct {
	hits, misses, errors, retries int64
	lastErr                       error
	sketch                        stats.Sketch
}

// wallTimeField is the one manifest field that is host noise rather
// than simulation output; verification masks it on both sides.
var wallTimeField = regexp.MustCompile(`"wall_time_s": [0-9eE.+-]+`)

// loader shares the verification state across clients.
type loader struct {
	cfg    LoadConfig
	client *http.Client

	mu             sync.Mutex
	reportHash     map[int][sha256.Size]byte
	runsHash       map[int][sha256.Size]byte
	verifyFailures int64
}

// runLoad executes the configured load and summarizes it.
func runLoad(cfg LoadConfig) (*Summary, error) {
	if cfg.Submissions <= 0 {
		return nil, fmt.Errorf("rifload: submissions %d; want > 0", cfg.Submissions)
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.HitRatio < 0 || cfg.HitRatio > 1 {
		return nil, fmt.Errorf("rifload: hit ratio %v; want [0,1]", cfg.HitRatio)
	}
	if cfg.HitRatio > 0 && cfg.HotSpecs <= 0 {
		cfg.HotSpecs = 1
	}
	var arrivals replay.Arrivals
	if cfg.Rate > 0 {
		var err error
		switch cfg.Arrivals {
		case "", "poisson":
			arrivals, err = replay.NewPoisson(cfg.Rate, cfg.Seed)
		case "fixed":
			arrivals, err = replay.NewFixed(cfg.Rate)
		default:
			err = fmt.Errorf("rifload: unknown arrival process %q (poisson, fixed)", cfg.Arrivals)
		}
		if err != nil {
			return nil, err
		}
	}
	if cfg.Retries < 0 {
		return nil, fmt.Errorf("rifload: retries %d; want >= 0", cfg.Retries)
	}
	if cfg.Retries > 0 {
		if cfg.Backoff <= 0 {
			cfg.Backoff = 100 * time.Millisecond
		}
		if cfg.MaxBackoff <= 0 {
			cfg.MaxBackoff = 5 * time.Second
		}
	}
	l := &loader{
		cfg:        cfg,
		client:     cfg.Client,
		reportHash: map[int][sha256.Size]byte{},
		runsHash:   map[int][sha256.Size]byte{},
	}
	if l.client == nil {
		// http.Client.Timeout covers the whole exchange including the
		// NDJSON body, so a stalled stream surfaces as a (retryable)
		// dropped stream instead of hanging the client forever.
		l.client = &http.Client{Timeout: cfg.Timeout}
	}

	jobs := make(chan submission)
	quit := make(chan struct{})
	defer close(quit)
	results := make([]workerResult, cfg.Clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(idx int, res *workerResult) {
			defer wg.Done()
			l.clientLoop(idx, jobs, quit, res)
		}(c, &results[c])
	}

	mix := newMix(cfg.Seed)
	//riflint:allow wallclock -- load harness measures a live HTTP service, not a simulation
	start := time.Now()
	for i := 0; i < cfg.Submissions; i++ {
		if arrivals != nil {
			due := start.Add(time.Duration(arrivals.Next(0)))
			//riflint:allow wallclock -- open-loop pacing of real HTTP submissions
			if d := time.Until(due); d > 0 {
				//riflint:allow wallclock -- open-loop pacing of real HTTP submissions
				time.Sleep(d)
			}
		}
		jobs <- l.submission(i, mix)
	}
	close(jobs)
	wg.Wait()
	//riflint:allow wallclock -- load harness measures a live HTTP service, not a simulation
	elapsed := time.Since(start)

	sum := &Summary{Submissions: cfg.Submissions, ElapsedS: elapsed.Seconds()}
	var merged stats.Sketch
	var lastErr error
	for i := range results {
		r := &results[i]
		sum.Hits += r.hits
		sum.Misses += r.misses
		sum.Errors += r.errors
		sum.Retries += r.retries
		if r.lastErr != nil {
			lastErr = r.lastErr
		}
		merged.Merge(&r.sketch)
	}
	if lastErr != nil {
		sum.LastError = lastErr.Error()
	}
	sum.VerifyFailures = l.verifyFailures
	if sum.ElapsedS > 0 {
		sum.JobsPerSec = float64(cfg.Submissions) / sum.ElapsedS
	}
	if merged.N() > 0 {
		sum.Latency = LatencySummary{
			P50:  merged.Quantile(0.50),
			P90:  merged.Quantile(0.90),
			P99:  merged.Quantile(0.99),
			Max:  merged.Max(),
			Mean: merged.Mean(),
		}
	}
	return sum, nil
}

// newMix returns the hit/miss mix RNG for a seed: its own named
// stream, so the mix is a pure function of the seed.
func newMix(seed uint64) *sim.RNG { return sim.NewRNG(seed, 0x10ad) }

// submission builds the i-th spec: hot submissions cycle the shared
// pool (so the server's cache can answer repeats), the rest carry a
// never-repeated seed.
func (l *loader) submission(i int, mix *sim.RNG) submission {
	specID := l.cfg.HotSpecs + i // unique: one spec per submission index
	seed := uint64(1_000_000 + i)
	if mix.Bernoulli(l.cfg.HitRatio) {
		specID = i % l.cfg.HotSpecs
		seed = uint64(1 + specID)
	}
	return submission{
		specID: specID,
		spec: fmt.Sprintf(`{"experiment":%q,"requests":%d,"seed":%d}`,
			l.cfg.Experiment, l.cfg.Requests, seed),
	}
}

// clientLoop drains submissions until the feed closes or quit fires.
// Each client owns a jitter RNG stream derived from (seed, client
// index), so back-off delays are decorrelated across clients but the
// run as a whole is still a function of its seed.
func (l *loader) clientLoop(idx int, jobs <-chan submission, quit <-chan struct{}, res *workerResult) {
	jitter := sim.NewRNG(l.cfg.Seed, 0xb0ff+uint64(idx))
	for {
		select {
		case <-quit:
			return
		case sub, ok := <-jobs:
			if !ok {
				return
			}
			latency, cached, err := l.submitOne(sub, jitter, res)
			if err != nil {
				res.errors++
				res.lastErr = err
				continue
			}
			if cached {
				res.hits++
			} else {
				res.misses++
			}
			res.sketch.Add(float64(latency) / float64(time.Millisecond))
		}
	}
}

// permanentErr marks a failure no retry can fix (bad spec, failed job,
// byte-identity violation); everything else — transport errors, 5xx,
// 429 backpressure, dropped streams, cancelled/shed terminals — is
// worth resubmitting, because resubmission is idempotent by content
// address.
type permanentErr struct{ err error }

func (p permanentErr) Error() string { return p.err.Error() }
func (p permanentErr) Unwrap() error { return p.err }

// retryAfterErr carries the server's Retry-After hint alongside a
// retryable 429.
type retryAfterErr struct {
	err   error
	delay time.Duration
}

func (r retryAfterErr) Error() string { return r.err.Error() }
func (r retryAfterErr) Unwrap() error { return r.err }

// submitOne submits one spec, retrying retryable failures with
// jittered exponential backoff (server Retry-After hints take
// precedence), and returns the client-observed latency across all
// attempts and whether the final answer came from the server's cache.
func (l *loader) submitOne(sub submission, jitter *sim.RNG, res *workerResult) (time.Duration, bool, error) {
	//riflint:allow wallclock -- client-observed latency of a live HTTP service
	start := time.Now()
	for attempt := 0; ; attempt++ {
		cached, err := l.attempt(sub)
		if err == nil {
			//riflint:allow wallclock -- client-observed latency of a live HTTP service
			return time.Since(start), cached, nil
		}
		var perm permanentErr
		if errors.As(err, &perm) || attempt >= l.cfg.Retries {
			return 0, false, err
		}
		res.retries++
		//riflint:allow wallclock -- retry back-off against a live HTTP service
		time.Sleep(l.backoffDelay(attempt, err, jitter))
	}
}

// backoffDelay picks the wait before retry attempt+1: the server's
// Retry-After verbatim when it sent one (capped at MaxBackoff), else
// full-jitter exponential backoff — U(0, min(Backoff·2^attempt,
// MaxBackoff)) — so a burst of turned-away clients decorrelates
// instead of returning in lockstep.
func (l *loader) backoffDelay(attempt int, err error, jitter *sim.RNG) time.Duration {
	var ra retryAfterErr
	if errors.As(err, &ra) && ra.delay > 0 {
		if ra.delay > l.cfg.MaxBackoff {
			return l.cfg.MaxBackoff
		}
		return ra.delay
	}
	d := l.cfg.Backoff
	for i := 0; i < attempt && d < l.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > l.cfg.MaxBackoff {
		d = l.cfg.MaxBackoff
	}
	return time.Duration(jitter.Float64() * float64(d))
}

// attempt posts one spec and follows the NDJSON stream to the terminal
// event. Failures come back classified: permanentErr for outcomes a
// retry cannot change, retryAfterErr for 429 backpressure carrying the
// server's hint, and plain errors for everything retryable.
func (l *loader) attempt(sub submission) (bool, error) {
	resp, err := l.client.Post(l.cfg.URL+"/jobs", "application/json", strings.NewReader(sub.spec))
	if err != nil {
		return false, err // transport failure: retryable
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, readErr := io.ReadAll(io.LimitReader(resp.Body, 256))
		if readErr != nil {
			body = []byte(readErr.Error())
		}
		err := fmt.Errorf("rifload: submit: %s: %s", resp.Status, strings.TrimSpace(string(body)))
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			delay := time.Duration(0)
			if secs, atoiErr := strconv.Atoi(resp.Header.Get("Retry-After")); atoiErr == nil && secs > 0 {
				delay = time.Duration(secs) * time.Second
			}
			return false, retryAfterErr{err: err, delay: delay}
		case resp.StatusCode >= 500:
			return false, err // includes 503 shutting-down: retryable
		default:
			return false, permanentErr{err}
		}
	}
	var last serve.Event
	sawEvent := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			// A dropped connection tears the final line mid-JSON;
			// reconnect-and-resubmit rather than giving up.
			return false, fmt.Errorf("rifload: dropped stream (bad event line %q): %w", sc.Text(), err)
		}
		sawEvent = true
	}
	if err := sc.Err(); err != nil {
		return false, fmt.Errorf("rifload: dropped stream: %w", err)
	}
	switch {
	case !sawEvent || !serve.State(last.Event).Terminal():
		// The server went away mid-stream without a terminal event.
		return false, fmt.Errorf("rifload: dropped stream: job %s last event %q", last.Job, last.Event)
	case last.Event == string(serve.Done):
	case last.Event == string(serve.Cancelled) || last.Event == string(serve.Shed):
		// The server drained or stopped under us; the work (if any) is
		// addressable, so resubmission either hits the cache or reruns.
		return false, fmt.Errorf("rifload: job %s ended %q", last.Job, last.Event)
	default:
		return false, permanentErr{fmt.Errorf("rifload: job %s ended %q: %s", last.Job, last.Event, last.Error)}
	}
	if l.cfg.Verify {
		if err := l.verify(sub.specID, last.Job); err != nil {
			return false, err
		}
	}
	return last.Cached, nil
}

// verify fetches the job's artifacts and pins them against the first
// submission of the same spec: identical /report bytes, identical
// /runs bytes after masking the wall-clock field. A mismatch is both
// counted and returned — it means the cache (or the determinism
// contract underneath it) served wrong bytes.
func (l *loader) verify(specID int, jobID string) error {
	report, err := l.get("/jobs/" + jobID + "/report")
	if err != nil {
		return err
	}
	runs, err := l.get("/runs/" + jobID)
	if err != nil {
		return err
	}
	reportSum := sha256.Sum256(report)
	runsSum := sha256.Sum256(wallTimeField.ReplaceAll(runs, []byte(`"wall_time_s": 0`)))

	l.mu.Lock()
	defer l.mu.Unlock()
	prevReport, seen := l.reportHash[specID]
	if !seen {
		l.reportHash[specID] = reportSum
		l.runsHash[specID] = runsSum
		return nil
	}
	if prevReport != reportSum || l.runsHash[specID] != runsSum {
		l.verifyFailures++
		// Permanent: the pinned hashes will not change, and a retry
		// would double-count the violation.
		return permanentErr{fmt.Errorf("rifload: job %s artifacts differ from an earlier submission of the same spec", jobID)}
	}
	return nil
}

// get fetches one endpoint fully.
func (l *loader) get(path string) ([]byte, error) {
	resp, err := l.client.Get(l.cfg.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("rifload: GET %s: %s", path, resp.Status)
	}
	return body, nil
}
