// Command perfbench is the repository benchmark. It runs one of four
// workloads for a fixed wall-clock budget and prints, as the last line
// of standard output, one JSON object with the run's end-to-end metrics
// (untraced run) or per-layer metrics (traced run):
//
//	grid-closed   the Fig. 17 grid, one cell at a time, a new device per cell
//	replay-write  open-loop replays of an Ali2-shaped stream with GC and read-reclaim
//	ldpc-code     encode, channel, min-sum decode and RP weights at t=256
//	serve-cache   two clients against an in-process rifserve with a durable store
//
// The benchmark measures host time: how long the simulator takes. The
// simulated statistics are deterministic at a fixed seed and serve only
// as correctness checks and exact-repeat counts. Metric names and units
// come from BENCHMARK.json at the repository root, so the two cannot
// drift. See perfbench/README.md for the layer map.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads maps each workload name to its runner, in BENCHMARK.json
// order.
var workloads = []struct {
	name string
	run  func(*env) (*outcome, error)
}{
	{"grid-closed", runGrid},
	{"replay-write", runReplay},
	{"ldpc-code", runLDPC},
	{"serve-cache", runServe},
}

// setUpReps is how many times a run sets its workload up; setup_s is
// the median.
const setUpReps = 5

// env is what a workload runner gets: its inputs and where to put
// things.
type env struct {
	seed    uint64
	seconds float64
	reps    int     // set-ups per run
	tr      *tracer // nil in untraced runs
	span    int32   // parent span of everything the runner records
	dir     string  // scratch directory inside the checkout
}

// outcome is what a workload runner measured.
type outcome struct {
	// unit names one operation ("sim_req", "codeword", "job") and item
	// the thing op latency is sampled over ("cell", "window", ...).
	unit, item string
	ops        int64   // operations completed in the timed phase
	opsPerSec  float64 // the runner's throughput estimate
	itemMS     []float64
	tailQ      float64 // the percentile op_tail_ms reports
	setups     []float64
	heap       heapMark // allocations of the timed phase, or of heapOps ops
	heapOps    int64    // the ops heap covers, when not ops
	rssMiB     float64  // median one-second peak RSS of the timed phase
	checks     checks
	layers     map[string]float64
	digest     string
	notes      []string
}

// checks counts correctness checks and keeps the failures.
type checks struct {
	attempted, failed int64
	msgs              []string
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

func (c *checks) add(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.msgs = append(c.msgs, o.msgs...)
}

// heapMark is a reading of the cumulative heap allocation counters.
type heapMark struct{ objs, bytes uint64 }

// readHeap uses runtime.ReadMemStats, which flushes every thread's
// allocation cache first. runtime/metrics counts a cached span's
// objects as allocated when the span is cached and corrects the count
// only at the next collection, so the count between two of its
// readings moves by up to thousands of objects with where a collection
// fell.
func readHeap() heapMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return heapMark{m.Mallocs, m.TotalAlloc}
}

func (h heapMark) since(start heapMark) heapMark {
	return heapMark{h.objs - start.objs, h.bytes - start.bytes}
}

// setUp runs fn reps times and returns each run's wall time in
// seconds. Before each run, and outside its time, it calls before (when
// non-nil: the previous set-up's teardown) and collects the heap. The
// heap is collected once more before the caller starts timing.
func setUp(reps int, before, fn func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < reps; i++ {
		if before != nil {
			if err := before(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
	}
	runtime.GC()
	return out, nil
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timedPhase measures what a workload's timed phase allocates and the
// resident set it peaks at. Peak RSS is taken per one-second window
// (VmHWM, reset through /proc/self/clear_refs after each reading) and
// reported as the median window peak, so one late garbage collection
// does not decide the figure.
type timedPhase struct {
	heap       heapMark
	stop, done chan struct{}
	peaks      []float64
}

func startTimed() *timedPhase {
	t := &timedPhase{heap: readHeap(), stop: make(chan struct{}), done: make(chan struct{})}
	resetPeakRSS()
	go func() {
		defer close(t.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				if v, err := peakRSSMiB(); err == nil {
					t.peaks = append(t.peaks, v)
				}
				resetPeakRSS()
			}
		}
	}()
	return t
}

// finish ends the timed phase and stores its measurements in o.
func (t *timedPhase) finish(o *outcome) {
	o.heap = readHeap().since(t.heap)
	close(t.stop)
	<-t.done
	if len(t.peaks) == 0 {
		if v, err := peakRSSMiB(); err == nil {
			t.peaks = append(t.peaks, v)
		}
	}
	o.rssMiB = median(t.peaks)
}

// resetPeakRSS sets VmHWM back to the current resident set. Where the
// kernel refuses, VmHWM stays the process-wide peak.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("perfbench: no VmHWM in /proc/self/status")
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the runner needs.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pick returns exactly the metrics specs names, with their units; a
// name the runner did not produce, or one it produced that specs does
// not list, is an error.
func pick(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("perfbench: metric %q not measured", s.Name)
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("perfbench: metric %q missing from BENCHMARK.json", name)
		}
	}
	return out, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "timed phase length")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	root := flag.String("root", ".", "repository checkout root")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	raw, err := os.ReadFile(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fail(fmt.Errorf("perfbench: BENCHMARK.json: %w", err))
	}
	var runner func(*env) (*outcome, error)
	for _, w := range workloads {
		if w.name == *workload {
			runner = w.run
		}
	}
	if runner == nil {
		return fail(fmt.Errorf("perfbench: unknown workload %q", *workload))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fail(errors.New("perfbench: want --seconds > 0 and --trace 0 or 1"))
	}
	outDir := filepath.Join(*root, ".bench_build", "perfbench")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(scratch)

	e := &env{seed: *seed, seconds: *seconds, reps: setUpReps, dir: scratch}
	if *trace == 1 {
		e.tr = newTracer()
		e.span = e.tr.begin("perfbench."+*workload, 0, 0)
	}
	o, err := runner(e)
	if err != nil {
		return fail(fmt.Errorf("perfbench: %s: %w", *workload, err))
	}
	e.tr.end(e.span)

	var values map[string]float64
	specs := spec.EndToEnd
	if *trace == 1 {
		values, err = tracedValues(e, *workload, o, outDir)
		specs = spec.PerLayer
	} else {
		values = endToEnd(o)
	}
	if err != nil {
		return fail(err)
	}
	picked, err := pick(specs, values)
	if err != nil {
		return fail(err)
	}

	report(*workload, *seed, *trace, o)
	res := result{
		Correct:   o.checks.failed == 0,
		Attempted: o.checks.attempted,
		Failed:    o.checks.failed,
		Metrics:   picked,
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEnd derives the untraced run's end-to-end metrics.
func endToEnd(o *outcome) map[string]float64 {
	heapOps := o.heapOps
	if heapOps == 0 {
		heapOps = o.ops
	}
	return map[string]float64{
		"setup_s":            median(o.setups),
		"ops_per_s":          o.opsPerSec,
		"op_p50_ms":          median(o.itemMS),
		"op_tail_ms":         quantile(o.itemMS, o.tailQ),
		"peak_rss_mib":       o.rssMiB,
		"allocs_per_op":      ratio(float64(o.heap.objs), float64(heapOps)),
		"alloc_bytes_per_op": ratio(float64(o.heap.bytes), float64(heapOps)),
		"ok_frac":            1 - ratio(float64(o.checks.failed), float64(o.checks.attempted)),
	}
}

// tracedValues completes a traced run. Each runner reports only the
// layers its workload loads; the layers this workload bypasses come
// from one-pass runs of the workloads that load them (a full pass of
// the grid, one replay, one ldpc stream, one block of jobs per client).
// The span file is written and the per-layer metrics returned.
func tracedValues(e *env, name string, o *outcome, outDir string) (map[string]float64, error) {
	values := map[string]float64{"bench.traced_ops_per_s": o.opsPerSec}
	for k, v := range o.layers {
		values[k] = v
	}
	for _, w := range workloads {
		if w.name == name {
			continue
		}
		sub := &env{seed: e.seed, seconds: 1e-9, reps: 1, tr: e.tr, dir: e.dir}
		sub.span = e.tr.begin("perfbench."+w.name+".one-pass", 0, 0)
		so, err := w.run(sub)
		if err != nil {
			return nil, fmt.Errorf("perfbench: one-pass %s run: %w", w.name, err)
		}
		e.tr.end(sub.span)
		o.checks.add(so.checks)
		var took []string
		for k, v := range so.layers {
			if _, ok := values[k]; !ok {
				values[k] = v
				took = append(took, k)
			}
		}
		sort.Strings(took)
		o.notes = append(o.notes, fmt.Sprintf("from a one-pass %s run: %s", w.name, strings.Join(took, " ")))
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, e.seed))
	if err := e.tr.write(path, name, e.seed); err != nil {
		return nil, err
	}
	o.notes = append(o.notes, "span file: "+path)
	return values, nil
}

// report prints the human-readable lines that precede the JSON result:
// the end-to-end metrics under their workload-specific names, the
// digest of simulated statistics, and any failed checks.
func report(name string, seed uint64, trace int, o *outcome) {
	n := len(o.itemMS)
	fmt.Printf("perfbench %s seed=%d trace=%d\n", name, seed, trace)
	fmt.Printf("  %-20s %.4f s (median of %d set-ups)\n", "setup_s", median(o.setups), len(o.setups))
	fmt.Printf("  %-20s %.2f 1/s (%d %ss)\n", o.unit+"_per_s", o.opsPerSec, o.ops, o.unit)
	fmt.Printf("  %-20s %.4f ms\n", o.item+"_p50_ms", median(o.itemMS))
	fmt.Printf("  %-20s %.4f ms (n=%d, %d beyond)\n", fmt.Sprintf("%s_p%g_ms", o.item, 100*o.tailQ),
		quantile(o.itemMS, o.tailQ), n, n-int(math.Ceil(o.tailQ*float64(n))))
	fmt.Printf("  %-20s %g (%d of %d checks)\n", "error_frac",
		ratio(float64(o.checks.failed), float64(o.checks.attempted)), o.checks.failed, o.checks.attempted)
	fmt.Printf("  %-20s %s\n", "digest", o.digest)
	for _, s := range o.notes {
		fmt.Printf("  %s\n", s)
	}
	for _, s := range o.checks.msgs {
		fmt.Printf("  FAILED: %s\n", s)
	}
}
