// Package replay is the open-loop arrival engine: it streams requests
// from an incremental trace source through one simulated SSD at a
// configurable arrival intensity, bounding both the in-flight ring and
// the memory footprint, so production-scale (multi-million-request)
// replays run in minutes with a flat heap. It is the load generator
// the paper's evaluation uses (§VI-A): real block traces replayed
// open-loop, with tail latency read off per-scheme intensity sweeps.
//
// The three arrival processes cover the standard sweep shapes:
//
//   - NewPoisson(rate, seed): memoryless arrivals at a mean intensity,
//     the M/G/k shape intensity ladders are built from.
//   - NewFixed(rate): evenly spaced arrivals, the deterministic
//     debugging twin of Poisson.
//   - NewTraceScale(speed): the trace's own timestamps compressed
//     (speed > 1) or stretched (speed < 1), preserving its burst
//     structure.
//
// Per-request latencies are folded into a stats.Sketch, never a
// per-request slice, and the source is pulled one request ahead of
// admission: total memory is O(sketch) + O(device), independent of
// replay length.
package replay

import (
	"fmt"
	"io"
	"math"

	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/trace"
)

// DefaultMaxInFlight bounds the open-loop ring when the caller does
// not: deep enough that sub-saturation sweeps never hold an arrival,
// shallow enough that a super-saturated replay cannot accumulate
// unbounded in-flight state.
const DefaultMaxInFlight = 1024

// Source is the incremental request stream a replay consumes: Next
// returns requests in trace order and io.EOF at the end.
// trace.CSVStream, trace.MSRStream and FromWorkload implement it.
type Source interface {
	Next() (trace.Request, error)
}

// Arrivals rewrites a request's arrival timestamp, turning a recorded
// trace into an open-loop load of chosen intensity. Implementations
// are stateful (they carry the arrival clock) and single-use.
type Arrivals interface {
	Next(orig sim.Time) sim.Time
}

// poisson issues arrivals with exponential interarrival times.
type poisson struct {
	rng  *sim.RNG
	mean float64 // mean interarrival, ns
	t    sim.Time
}

// NewPoisson returns a Poisson arrival process at rateIOPS requests
// per second, deterministic in seed.
func NewPoisson(rateIOPS float64, seed uint64) (Arrivals, error) {
	if rateIOPS <= 0 || math.IsNaN(rateIOPS) || math.IsInf(rateIOPS, 0) {
		return nil, fmt.Errorf("replay: arrival rate %v IOPS; want > 0", rateIOPS)
	}
	return &poisson{rng: sim.NewRNG(seed, 0xa881), mean: 1e9 / rateIOPS}, nil
}

// Next draws the next exponential interarrival gap. One call per
// admitted request: the replay admission hot path.
//
//riflint:hotpath
func (p *poisson) Next(sim.Time) sim.Time {
	d := sim.Time(p.rng.Exponential(p.mean))
	if d < sim.Nanosecond {
		// Sub-nanosecond draws truncate to zero ticks; keep arrivals
		// strictly monotone.
		d = sim.Nanosecond
	}
	p.t += d
	return p.t
}

// fixed issues evenly spaced arrivals. The clock is derived from the
// arrival index (not accumulated) so rounding never drifts the rate.
type fixed struct {
	mean float64 // interarrival, ns
	n    int64
}

// NewFixed returns a fixed-rate arrival process at rateIOPS requests
// per second.
func NewFixed(rateIOPS float64) (Arrivals, error) {
	if rateIOPS <= 0 || math.IsNaN(rateIOPS) || math.IsInf(rateIOPS, 0) {
		return nil, fmt.Errorf("replay: arrival rate %v IOPS; want > 0", rateIOPS)
	}
	return &fixed{mean: 1e9 / rateIOPS}, nil
}

// Next derives the next evenly spaced arrival instant.
//
//riflint:hotpath
func (f *fixed) Next(sim.Time) sim.Time {
	f.n++
	return sim.Time(float64(f.n) * f.mean)
}

// traceScale replays the trace's own timestamps at speed× real time.
type traceScale struct {
	speed float64
}

// NewTraceScale returns an arrival process that keeps the trace's
// burst structure, compressed by speed (2 = twice as fast). Use
// speed 1 to honour the recorded timestamps exactly.
func NewTraceScale(speed float64) (Arrivals, error) {
	if speed <= 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
		return nil, fmt.Errorf("replay: trace speedup %v; want > 0", speed)
	}
	return &traceScale{speed: speed}, nil
}

// Next compresses the recorded timestamp by the replay speedup.
//
//riflint:hotpath
func (t *traceScale) Next(orig sim.Time) sim.Time {
	return sim.Time(float64(orig) / t.speed)
}

// AgeModel is the optional per-LPN retention-age interface a Source
// may implement (trace.Generator does, via FromWorkload): when
// present it overrides Options.AgeDays, keeping the reliability
// physics of a synthetic workload identical between closed-loop runs
// and replays.
type AgeModel interface {
	InitialAgeDays(lpn int64) float64
}

// workloadSource adapts an infinite request generator (ssd.Workload,
// e.g. trace.Generator) into a Source of n requests.
type workloadSource struct {
	w interface{ Next() trace.Request }
	n int64
}

// FromWorkload returns a Source serving the first n requests of an
// infinite generator. If w also carries an age model (as
// trace.Generator does), the source exposes it to the replay.
func FromWorkload(w interface{ Next() trace.Request }, n int64) Source {
	if am, ok := w.(AgeModel); ok {
		return &agedWorkloadSource{workloadSource{w: w, n: n}, am}
	}
	return &workloadSource{w: w, n: n}
}

func (ws *workloadSource) Next() (trace.Request, error) {
	if ws.n <= 0 {
		return trace.Request{}, io.EOF
	}
	ws.n--
	return ws.w.Next(), nil
}

// agedWorkloadSource is a workloadSource whose generator carries its
// own retention-age model.
type agedWorkloadSource struct {
	workloadSource
	am AgeModel
}

func (as *agedWorkloadSource) InitialAgeDays(lpn int64) float64 {
	return as.am.InitialAgeDays(lpn)
}

// Options configures one replay run.
type Options struct {
	// Config is the device and host configuration. OpenLoop is forced
	// on; MaxInFlight zero is defaulted to DefaultMaxInFlight.
	Config ssd.Config

	// Arrivals rewrites arrival timestamps; nil keeps the trace's own
	// (equivalent to NewTraceScale(1) without the float round trip).
	Arrivals Arrivals

	// MaxRequests bounds the replay; 0 replays the whole stream.
	MaxRequests int64

	// AgeDays is the uniform initial retention age of cold data
	// (replayed traces carry no retention metadata).
	AgeDays float64

	// FootprintPages, when positive, streams the trace's logical
	// addresses through a trace.Compactor into a dense space of this
	// size, the way experiments size the simulated footprint.
	FootprintPages int64

	// Progress, when non-nil, is called after every ProgressEvery
	// completed source requests (default 1<<20) — the hook the
	// flat-heap smoke test samples the heap from.
	Progress      func(served int64)
	ProgressEvery int64
}

// Result is one replay's outcome.
type Result struct {
	// Metrics is the device-level accounting.
	Metrics *ssd.Metrics
	// Latency is &Metrics.ReadLatencies, the read-latency sketch (µs).
	Latency *stats.Sketch
	// Requests is the number of requests actually replayed (the whole
	// stream may be shorter than MaxRequests).
	Requests int64
}

// sourceWorkload feeds the open-loop host from a Source with a
// one-request lookahead, so exhaustion and parse errors surface
// before the host commits to another arrival.
type sourceWorkload struct {
	src   Source
	comp  *trace.Compactor
	arr   Arrivals
	age   float64
	next  trace.Request
	done  bool
	err   error
	limit int64

	served   int64
	progress func(int64)
	every    int64
}

// advance pulls the next request into the one-element lookahead. Runs
// once per admitted request; the source and arrival interfaces it
// calls through are outside the static graph, but its own body must
// stay allocation-free.
//
//riflint:hotpath
func (w *sourceWorkload) advance() {
	if w.limit == 0 {
		w.done = true
		return
	}
	req, err := w.src.Next()
	if err != nil {
		w.done = true
		if err != io.EOF {
			w.err = err
		}
		return
	}
	if w.limit > 0 {
		w.limit--
	}
	if w.comp != nil {
		req = w.comp.Apply(req)
	}
	if w.arr != nil {
		req.At = w.arr.Next(req.At)
	}
	w.next = req
}

func (w *sourceWorkload) Exhausted() bool { return w.done }

func (w *sourceWorkload) Next() trace.Request {
	req := w.next
	w.served++
	if w.progress != nil && w.served%w.every == 0 {
		w.progress(w.served)
	}
	w.advance()
	return req
}

func (w *sourceWorkload) InitialAgeDays(lpn int64) float64 {
	if am, ok := w.src.(AgeModel); ok {
		return am.InitialAgeDays(lpn)
	}
	return w.age
}

// Run replays src through one simulated SSD and returns the sketch
// and device metrics. The run is deterministic in (Options, source
// content).
func Run(src Source, opt Options) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("replay: nil source")
	}
	if opt.MaxRequests < 0 {
		return nil, fmt.Errorf("replay: max requests %d", opt.MaxRequests)
	}
	cfg := opt.Config
	cfg.OpenLoop = true
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	every := opt.ProgressEvery
	if every <= 0 {
		every = 1 << 20
	}
	w := &sourceWorkload{
		src:      src,
		arr:      opt.Arrivals,
		age:      opt.AgeDays,
		limit:    -1,
		progress: opt.Progress,
		every:    every,
	}
	if opt.MaxRequests > 0 {
		w.limit = opt.MaxRequests
	}
	if opt.FootprintPages > 0 {
		w.comp = trace.NewCompactor(opt.FootprintPages)
	}
	w.advance() // prime the lookahead
	if w.err != nil {
		return nil, w.err
	}
	if w.done {
		return nil, fmt.Errorf("replay: empty trace")
	}

	dev, err := ssd.New(cfg, w)
	if err != nil {
		return nil, err
	}
	// The host stops at source exhaustion; the cap only has to be
	// unreachable.
	n := math.MaxInt
	if opt.MaxRequests > 0 && opt.MaxRequests < int64(n) {
		n = int(opt.MaxRequests)
	}
	m, err := dev.Run(n)
	if err != nil {
		return nil, err
	}
	if w.err != nil {
		return nil, fmt.Errorf("replay: after %d requests: %w", m.RequestsCompleted, w.err)
	}
	return &Result{Metrics: m, Latency: &m.ReadLatencies, Requests: int64(m.RequestsCompleted)}, nil
}
