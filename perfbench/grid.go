package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// grid-closed runs the Fig. 17 evaluation grid at the rifsim default
// sizing: 7 schemes × 8 Table II workloads × 3 P/E points, 168
// closed-loop cells of 3,000 requests on the shrunk geometry, one cell
// at a time with a new device per cell. It is what a figure user waits
// for.

type cell struct {
	scheme ssd.Scheme
	wl     string
	pe     int
}

func (c cell) String() string { return fmt.Sprintf("%v/%s/%dK", c.scheme, c.wl, c.pe/1000) }

// fig17Cells lists the grid in core.CompareSchemes order.
func fig17Cells() []cell {
	var out []cell
	for _, pe := range core.PaperPECycles {
		for _, wl := range trace.Names() {
			for _, s := range ssd.AllSchemes() {
				out = append(out, cell{s, wl, pe})
			}
		}
	}
	return out
}

type cellRun struct {
	m      *ssd.Metrics
	events uint64
	total  time.Duration
	heap   heapMark // what the cell allocated
}

// gridAcc folds a traced grid run's per-layer counts.
type gridAcc struct {
	sim           simAcc
	newMS         []float64
	newBytes      uint64
	newNS, cellNS int64
}

// runCell simulates one cell with the wiring of core.RunOne, calling
// each module itself so device build and simulation are timed apart.
// acc, when non-nil, receives the cell's per-layer counts; the cell then
// runs with an obs registry and through the timed workload wrapper.
func runCell(p core.RunParams, c cell, tr *tracer, parent int32, item int64, acc *gridAcc) (cellRun, error) {
	hStart := readHeap()
	start := time.Now()
	root := tr.begin("grid.cell", parent, item)
	sp := tr.begin("core.RunParams.BuildConfig", root, item)
	cfg := p.BuildConfig(c.scheme, c.pe)
	tr.end(sp)
	spec, err := trace.ByName(c.wl)
	if err != nil {
		return cellRun{}, err
	}
	spec.FootprintPages = p.FootprintPages
	sp = tr.begin("trace.NewGenerator", root, item)
	g, err := trace.NewGenerator(spec, p.Seed)
	tr.end(sp)
	if err != nil {
		return cellRun{}, err
	}
	var w ssd.Workload = g
	var tw *timedWorkload
	var reg *obs.Registry
	if acc != nil {
		tw = &timedWorkload{g: g}
		w = tw
		reg = obs.NewRegistry()
		cfg.Obs = reg
	}
	h0 := readHeap()
	sp = tr.begin("ssd.New", root, item)
	dev, err := ssd.New(cfg, w)
	newD := tr.end(sp)
	if err != nil {
		return cellRun{}, err
	}
	h1 := readHeap()
	sp = tr.begin("ssd.SSD.Run", root, item)
	m, err := dev.Run(p.Requests)
	runD := tr.end(sp)
	if err != nil {
		return cellRun{}, err
	}
	h2 := readHeap()
	tr.end(root)
	r := cellRun{m: m, events: dev.Engine().Processed(), total: time.Since(start), heap: h2.since(hStart)}
	if acc != nil {
		acc.newMS = append(acc.newMS, ms(newD))
		acc.newBytes += h1.bytes - h0.bytes
		acc.newNS += newD.Nanoseconds()
		acc.cellNS += r.total.Nanoseconds()
		acc.sim.add(m, r.events, runD.Nanoseconds(), h2.objs-h1.objs, reg, tw)
	}
	return r, nil
}

func runGrid(e *env) (*outcome, error) {
	p := core.DefaultRunParams()
	p.Seed = e.seed
	p.Workers = 1
	cells := fig17Cells()
	// The set-up's warm-up is the retry-heavy corner of the grid: the
	// Ali124 cells at 2K P/E.
	var warm []int
	for i, c := range cells {
		if c.wl == "Ali124" && c.pe == 2000 {
			warm = append(warm, i)
		}
	}

	// Item latency is over the 168 per-cell medians, so the tail is p90:
	// p95 would leave fewer than ten cells beyond it.
	o := &outcome{unit: "sim_req", item: "cell", tailQ: 0.90}
	first := make([]*simSig, len(cells))
	bw := make([]float64, len(cells))
	var retries2K int64
	note := func(i int, r cellRun) {
		s := signature(r.m, r.events)
		if first[i] == nil {
			first[i], bw[i] = &s, r.m.Bandwidth()
		} else {
			checkRepeat(&o.checks, "grid-closed cell "+cells[i].String(), *first[i], s)
		}
		if cells[i].pe == 2000 {
			retries2K += r.m.RetryRounds
		}
	}
	var err error
	o.setups, err = setUp(e.reps, nil, func() error {
		for _, i := range warm {
			r, err := runCell(p, cells[i], nil, 0, int64(i), nil)
			if err != nil {
				return fmt.Errorf("warm-up cell %v: %w", cells[i], err)
			}
			note(i, r)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var acc *gridAcc
	if e.tr != nil {
		acc = &gridAcc{}
	}
	times := make([][]float64, len(cells))
	objs := make([][]float64, len(cells))
	bytes := make([][]float64, len(cells))
	reqs := make([]int64, len(cells))
	runs := 0
	tp := startTimed()
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	// Every run covers the whole grid at least once. Per-layer counts are
	// folded over that first pass only, so their cell mix is fixed.
	for k := 0; k < len(cells) || time.Now().Before(deadline); k++ {
		i := k % len(cells)
		a := acc
		if acc != nil && k >= len(cells) {
			a = &gridAcc{} // instrumented like the first pass, not folded
		}
		r, err := runCell(p, cells[i], e.tr, e.span, int64(i), a)
		if err != nil {
			return nil, fmt.Errorf("cell %v: %w", cells[i], err)
		}
		times[i] = append(times[i], r.total.Seconds())
		objs[i] = append(objs[i], float64(r.heap.objs))
		bytes[i] = append(bytes[i], float64(r.heap.bytes))
		reqs[i] = int64(r.m.RequestsCompleted)
		o.ops += reqs[i]
		runs++
		note(i, r)
	}
	tp.finish(o)
	// Throughput, cell latency and allocations weigh every cell once, by
	// its median over the passes that reached it. A partial last pass
	// (which reaches only the grid's first cells, all at 0 P/E) thus
	// does not change the mix, and one slow pass moves nothing.
	var sumS, sumObjs, sumBytes float64
	var sumReq int64
	for i := range cells {
		sumS += median(times[i])
		sumObjs += median(objs[i])
		sumBytes += median(bytes[i])
		sumReq += reqs[i]
		o.itemMS = append(o.itemMS, 1e3*median(times[i]))
	}
	o.opsPerSec = ratio(float64(sumReq), sumS)
	o.heap = heapMark{objs: uint64(sumObjs), bytes: uint64(sumBytes)}
	o.heapOps = sumReq

	// The benchmark's own wiring must reproduce core.CompareSchemes on a
	// seeded sample of the cells it ran.
	var ran []int
	for i := range cells {
		if first[i] != nil {
			ran = append(ran, i)
		}
	}
	rng := rand.New(rand.NewPCG(e.seed, 41))
	for _, j := range rng.Perm(len(ran))[:min(3, len(ran))] {
		i := ran[j]
		c := cells[i]
		tbl, err := core.CompareSchemes(p, []ssd.Scheme{c.scheme}, []string{c.wl}, []int{c.pe})
		if err != nil {
			return nil, fmt.Errorf("core.CompareSchemes %v: %w", c, err)
		}
		got := tbl.Get(c.scheme, c.wl, c.pe)
		o.checks.check(got == bw[i], "grid-closed: cell %v bandwidth %v MB/s, core.CompareSchemes %v MB/s", c, bw[i], got)
	}
	o.checks.check(retries2K > 0, "grid-closed: no retry rounds at 2K P/E; the read-retry path went unloaded")

	h := sha256.New()
	for _, i := range ran {
		fmt.Fprintln(h, first[i].stats)
	}
	o.digest = fmt.Sprintf("sha256:%x (%d cells)", h.Sum(nil)[:12], len(ran))
	o.notes = append(o.notes, fmt.Sprintf("passes over the grid: %.2f", float64(runs)/float64(len(cells))))

	if acc != nil {
		acc.sim.pageRBERNS = probePageRBER(e.seed, core.PaperPECycles, 2000)
		o.layers = acc.sim.simLayers()
		acc.sim.readLayers(o.layers)
		o.layers["ssd.new_ms"] = median(acc.newMS)
		o.layers["ssd.new_share"] = ratio(float64(acc.newNS), float64(acc.cellNS))
		o.layers["ssd.new_alloc_mib"] = ratio(float64(acc.newBytes), float64(len(acc.newMS))) / (1 << 20)
	}
	return o, nil
}
