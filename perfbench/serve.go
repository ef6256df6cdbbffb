package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/resultcache"
	"repro/internal/serve"
)

// serve-cache drives an in-process rifserve handler on loopback, with a
// durable store and job journal in a scratch directory, from two
// closed-loop clients (the host's CPU count). The traffic is the
// result-cache mix cmd/rifload models, at its defaults: every spec runs
// the chaos study (a twelve-cell grid) at 40 requests per simulation,
// submissions draw from a pool of four hot specs with probability 0.9,
// and the rest are specs that never repeat. Hot specs are pre-warmed
// during set-up, so each is an exact cache hit that bypasses the
// simulator; each cold spec is a true miss running its grid on the
// shared fleet.Scheduler.
//
// rifload draws each submission's role by a Bernoulli trial. Here each
// block of ten submissions holds exactly one cold spec, at a seeded
// position, so the miss share (which sets most of the throughput) is
// the same in every run and the measured hit ratio equals the
// configured one.
const (
	serveClients    = 2
	serveHotSpecs   = 4
	serveBlock      = 10
	serveBlockCold  = 1
	serveExperiment = "chaos"
	serveRequests   = 40
	serveCells      = 12 // cells of one chaos grid
)

func serveSpec(seed uint64) serve.JobSpec {
	return serve.JobSpec{Experiment: serveExperiment, Requests: serveRequests, Seed: seed}
}

// Spec seeds: distinct for every hot spec and every cold job of a run,
// and never 0 or 1 (a spec seed of 0 means 1).
func hotSeed(run uint64, i int) uint64 { return run*1_000_003 + 2 + uint64(i) }

func coldSeed(run uint64, client, k int) uint64 {
	return run*1_000_003 + 2 + serveHotSpecs + uint64(k*serveClients+client)
}

// serveRig is one server instance and the HTTP plumbing around it.
type serveRig struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	done   chan error
	client *http.Client
}

func startRig(dir string) (*serveRig, error) {
	srv := serve.New(serve.Config{
		JobWorkers:  serveClients,
		CellWorkers: serveClients,
		CacheBytes:  serve.DefaultCacheBytes,
		StoreDir:    filepath.Join(dir, "store"),
	})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Stop()
		return nil, err
	}
	r := &serveRig{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		done:   make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
	}
	go func() { r.done <- r.hs.Serve(ln) }()
	return r, nil
}

// close stops the HTTP server, waits for its goroutine, and drains the
// job service.
func (r *serveRig) close() error {
	err := r.hs.Shutdown(context.Background())
	if serr := <-r.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	r.srv.Drain()
	r.client.CloseIdleConnections()
	return err
}

func (r *serveRig) get(path string) ([]byte, error) {
	resp, err := r.client.Get(r.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, err
}

// serveCounters are the /metrics samples the traced run takes over its
// timed phase: cell steals, cache hits and cache misses.
var serveCounters = []string{"rifserve_cell_steals", "rifserve_cache_hits_total", "rifserve_cache_misses_total"}

// counters reads serveCounters from one /metrics scrape.
func (r *serveRig) counters() ([]float64, error) {
	body, err := r.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(serveCounters))
	for i, name := range serveCounters {
		found := false
		for _, line := range strings.Split(string(body), "\n") {
			if f := strings.Fields(line); len(f) == 2 && (f[0] == name || strings.HasPrefix(f[0], name+"{")) {
				if out[i], err = strconv.ParseFloat(f[1], 64); err != nil {
					return nil, err
				}
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("/metrics has no %s", name)
		}
	}
	return out, nil
}

// jobObs is what a client saw of one job.
type jobObs struct {
	seed                          uint64
	wantHit, cached, rejected     bool
	report                        [32]byte
	start, running, done, fetched time.Time
}

// submit posts a spec, follows its NDJSON stream to the terminal event
// and fetches the report: the client-observed latency of one job.
func (r *serveRig) submit(spec serve.JobSpec) (jobObs, error) {
	j := jobObs{seed: spec.Seed}
	body, err := json.Marshal(spec)
	if err != nil {
		return j, err
	}
	j.start = time.Now()
	resp, err := r.client.Post(r.url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return j, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		j.rejected = resp.StatusCode == http.StatusTooManyRequests
		return j, fmt.Errorf("POST /jobs: %s", resp.Status)
	}
	var ev serve.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		ev = serve.Event{}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			resp.Body.Close()
			return j, fmt.Errorf("event %q: %w", sc.Text(), err)
		}
		if ev.Event == string(serve.Running) {
			j.running = time.Now()
		}
	}
	err = sc.Err()
	resp.Body.Close()
	j.done = time.Now()
	if err != nil {
		return j, err
	}
	if ev.Event != string(serve.Done) {
		return j, fmt.Errorf("job %s ended %q: %s", ev.Job, ev.Event, ev.Error)
	}
	j.cached = ev.Cached
	rep, err := r.get("/jobs/" + ev.Job + "/report")
	j.fetched = time.Now()
	j.report = sha256.Sum256(rep)
	return j, err
}

// clientLoop runs one client's seeded spec list, a block of ten at a
// time, until the deadline has passed at a block boundary.
func (r *serveRig) clientLoop(run uint64, c int, deadline time.Time, tr *tracer, parent int32) ([]jobObs, error) {
	rng := rand.New(rand.NewPCG(run, 100+uint64(c)))
	var jobs []jobObs
	cold := 0
	for block := 0; block == 0 || time.Now().Before(deadline); block++ {
		isCold := make([]bool, serveBlock)
		for _, i := range rng.Perm(serveBlock)[:serveBlockCold] {
			isCold[i] = true
		}
		for i := 0; i < serveBlock; i++ {
			spec := serveSpec(hotSeed(run, rng.IntN(serveHotSpecs)))
			if isCold[i] {
				spec = serveSpec(coldSeed(run, c, cold))
				cold++
			}
			j, err := r.submit(spec)
			j.wantHit = !isCold[i]
			jobs = append(jobs, j)
			if err != nil {
				return jobs, fmt.Errorf("client %d job %d: %w", c, len(jobs), err)
			}
			if tr != nil {
				item := int64(c)<<32 | int64(len(jobs))
				root := tr.record("serve.job", parent, item, j.start, j.fetched)
				post := tr.record("serve.POST /jobs", root, item, j.start, j.done)
				if !j.running.IsZero() {
					tr.record("serve.queued", post, item, j.start, j.running)
					tr.record("serve.running", post, item, j.running, j.done)
				}
				tr.record("serve.GET /jobs/{id}/report", root, item, j.done, j.fetched)
			}
		}
	}
	return jobs, nil
}

// verifyReports checks every served report against core.RunExperiment
// for the same spec, two specs at a time.
func verifyReports(c *checks, reports map[uint64][32]byte) error {
	seeds := make([]uint64, 0, len(reports))
	for s := range reports {
		seeds = append(seeds, s)
	}
	want := make([][32]byte, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(seeds); i += serveClients {
				p, err := serveSpec(seeds[i]).Params()
				if err != nil {
					errs[i] = err
					continue
				}
				p.Workers = 1
				var buf bytes.Buffer
				errs[i] = core.RunExperiment(&buf, serveExperiment, p)
				want[i] = sha256.Sum256(buf.Bytes())
			}
		}(w)
	}
	wg.Wait()
	for i, s := range seeds {
		if errs[i] != nil {
			return fmt.Errorf("core.RunExperiment seed %d: %w", s, errs[i])
		}
		c.check(reports[s] == want[i], "serve-cache: report for seed %d differs from core.RunExperiment", s)
	}
	return nil
}

func runServe(e *env) (*outcome, error) {
	o := &outcome{unit: "job", item: "job", tailQ: 0.99}
	reports := map[uint64][32]byte{}
	noteReport := func(j jobObs) {
		if prev, ok := reports[j.seed]; ok {
			o.checks.check(prev == j.report, "serve-cache: two reports for seed %d differ", j.seed)
		} else {
			reports[j.seed] = j.report
		}
	}
	var rig *serveRig
	var err error
	// The previous set-up's server is shut down and drained outside the
	// next set-up's time.
	closeRig := func() error {
		if rig == nil {
			return nil
		}
		err := rig.close()
		rig = nil
		return err
	}
	o.setups, err = setUp(e.reps, closeRig, func() error {
		dir, err := os.MkdirTemp(e.dir, "serve-")
		if err != nil {
			return err
		}
		if rig, err = startRig(dir); err != nil {
			return err
		}
		for i := 0; i < serveHotSpecs; i++ {
			j, err := rig.submit(serveSpec(hotSeed(e.seed, i)))
			if err != nil {
				return fmt.Errorf("pre-warm: %w", err)
			}
			o.checks.check(!j.cached, "serve-cache: pre-warm of a fresh server hit the cache")
			noteReport(j)
		}
		return nil
	})
	defer closeRig()
	if err != nil {
		return nil, err
	}

	var base []float64
	if e.tr != nil {
		if base, err = rig.counters(); err != nil {
			return nil, err
		}
	}
	logs := make([][]jobObs, serveClients)
	errs := make([]error, serveClients)
	tp := startTimed()
	start := time.Now()
	deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			logs[c], errs[c] = rig.clientLoop(e.seed, c, deadline, e.tr, e.span)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	tp.finish(o)

	var hits, wantHits, rejected int
	var queueMS, computeMS, fetchMS []float64
	for c, jobs := range logs {
		o.checks.check(errs[c] == nil, "serve-cache: %v", errs[c])
		for _, j := range jobs {
			if j.rejected {
				rejected++
			}
			if j.fetched.IsZero() {
				continue
			}
			o.ops++
			o.itemMS = append(o.itemMS, ms(j.fetched.Sub(j.start)))
			fetchMS = append(fetchMS, ms(j.fetched.Sub(j.done)))
			if !j.running.IsZero() {
				queueMS = append(queueMS, ms(j.running.Sub(j.start)))
				computeMS = append(computeMS, ms(j.done.Sub(j.running)))
			}
			if j.cached {
				hits++
			}
			if j.wantHit {
				wantHits++
			}
			o.checks.check(j.cached == j.wantHit, "serve-cache: seed %d cached=%v, want %v", j.seed, j.cached, j.wantHit)
			noteReport(j)
		}
	}
	o.opsPerSec = float64(o.ops) / elapsed.Seconds()
	hitFrac := ratio(float64(hits), float64(o.ops))
	o.checks.check(hits == wantHits && o.ops%serveBlock == 0,
		"serve-cache: measured hit ratio %.4f, configured %.1f", hitFrac, 1-float64(serveBlockCold)/serveBlock)
	if err := verifyReports(&o.checks, reports); err != nil {
		return nil, err
	}
	h := sha256.New()
	for s := uint64(0); s < uint64(serveHotSpecs); s++ {
		r := reports[hotSeed(e.seed, int(s))]
		h.Write(r[:])
	}
	o.digest = fmt.Sprintf("sha256:%x (hot-pool reports)", h.Sum(nil)[:12])
	o.notes = append(o.notes, fmt.Sprintf("jobs: %d, hit ratio %.4f, distinct reports verified: %d", o.ops, hitFrac, len(reports)))

	if e.tr != nil {
		// Counter deltas over the timed phase, so neither the pre-warm
		// nor the run's length moves them.
		now, err := rig.counters()
		if err != nil {
			return nil, err
		}
		steals, cacheHits, cacheMisses := now[0]-base[0], now[1]-base[1], now[2]-base[2]
		keyUS, err := probeKey(e.seed)
		if err != nil {
			return nil, err
		}
		getMS, putMS, err := probeStore(e.dir, rig)
		if err != nil {
			return nil, err
		}
		o.layers = map[string]float64{
			"serve.queue_wait_ms":      median(queueMS),
			"serve.compute_ms":         median(computeMS),
			"serve.fetch_ms":           median(fetchMS),
			"serve.rejected_frac":      ratio(float64(rejected), float64(o.ops+int64(rejected))),
			"fleet.cell_steals":        ratio(steals, cacheMisses),
			"resultcache.hit_frac":     ratio(cacheHits, cacheHits+cacheMisses),
			"resultcache.key_us":       keyUS,
			"resultcache.store_get_ms": getMS,
			"resultcache.store_put_ms": putMS,
		}
	}
	return o, nil
}

// probeKey times resultcache.Keyer.Key on the workload's specs.
func probeKey(seed uint64) (float64, error) {
	p, err := serveSpec(hotSeed(seed, 0)).Params()
	if err != nil {
		return 0, err
	}
	k := resultcache.NewKeyer()
	const n = 4096
	start := time.Now()
	for i := 0; i < n; i++ {
		p.Seed = hotSeed(seed, i)
		key := k.Key(serveExperiment, p)
		sink += float64(key[0])
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / n, nil
}

// probeStore times resultcache.Store Put and Get on entries the size of
// a served job's artifacts, in a store of its own.
func probeStore(dir string, rig *serveRig) (getMS, putMS float64, err error) {
	report, err := rig.get("/jobs/job-1/report")
	if err != nil {
		return 0, 0, err
	}
	runs, err := rig.get("/runs/job-1")
	if err != nil {
		return 0, 0, err
	}
	st, err := resultcache.OpenStore(filepath.Join(dir, "probe-store"), resultcache.StoreOptions{})
	if err != nil {
		return 0, 0, err
	}
	const n = 32
	e := resultcache.Entry{Report: report, Runs: runs, Cells: serveCells}
	keys := make([]resultcache.Key, n)
	start := time.Now()
	for i := range keys {
		keys[i] = resultcache.Key(sha256.Sum256([]byte{byte(i)}))
		if err := st.Put(keys[i], e); err != nil {
			return 0, 0, err
		}
	}
	putMS = ms(time.Since(start)) / n
	start = time.Now()
	for _, k := range keys {
		if _, ok, err := st.Get(k); err != nil || !ok {
			return 0, 0, fmt.Errorf("store probe: get %v: ok=%v err=%v", k, ok, err)
		}
	}
	getMS = ms(time.Since(start)) / n
	return getMS, putMS, nil
}
