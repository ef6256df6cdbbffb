package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/trace"
)

// simAcc folds the per-layer counts of the simulations a traced run
// performs (grid cells or replay passes).
type simAcc struct {
	reqs, runNS                        int64
	runObjs, events                    uint64
	senses, pageReads, retryRounds     int64
	predictions, mispredictions        int64
	chanUncor, chanWait, chanTotal     sim.Time
	hostPages, moved, gcRuns, reclaims int64
	cacheHits, cacheStalls             int64
	nextNS, nextCalls                  int64
	pageRBERNS                         float64
}

// senses counts every array sense of a run: first reads, retry rounds,
// RVS re-reads and sentinel extra reads.
func senses(m *ssd.Metrics) int64 {
	return m.PageReads + m.RetryRounds + m.RVSRereads + m.SentinelExtraReads
}

func hostPages(m *ssd.Metrics) int64 {
	return m.BytesWritten / int64(nand.PaperGeometry().PageBytes)
}

// writeAmp is pages programmed (host, GC relocation, reclaim migration)
// per host page written.
func writeAmp(m *ssd.Metrics) float64 {
	hp := hostPages(m)
	return ratio(float64(hp+m.PagesRelocated+m.ReclaimPagesMigrated), float64(hp))
}

// simSig is what must repeat exactly when the same simulation runs
// twice in one process.
type simSig struct {
	events   uint64
	senses   int64
	writeAmp float64
	stats    string
}

func signature(m *ssd.Metrics, events uint64) simSig {
	return simSig{events: events, senses: senses(m), writeAmp: writeAmp(m), stats: statsKey(m)}
}

// statsKey renders a run's simulated statistics canonically; digests
// hash it so two commits can be compared for identical simulation.
func statsKey(m *ssd.Metrics) string {
	c := m.Channels
	return fmt.Sprintf("%v pe=%d req=%d rd=%d wr=%d span=%d pr=%d retried=%d rr=%d sx=%d unrec=%d "+
		"pred=%d mis=%d avoid=%d rvs=%d gc=%d reloc=%d recl=%d mig=%d held=%d merr=%d "+
		"ch=%d/%d/%d/%d/%d p99=%.3f",
		m.Scheme, m.PECycles, m.RequestsCompleted, m.BytesRead, m.BytesWritten, m.Makespan,
		m.PageReads, m.PagesRetried, m.RetryRounds, m.SentinelExtraReads, m.UnrecoveredPages,
		m.Predictions, m.Mispredictions, m.AvoidedTransfers, m.RVSRereads, m.GCRuns,
		m.PagesRelocated, m.ReadReclaims, m.ReclaimPagesMigrated, m.HeldArrivals,
		m.MediaErrorRequests, c.Cor, c.Uncor, c.Write, c.ECCWait, c.Total,
		m.ReadLatencies.Percentile(99))
}

// checkRepeat compares a repeated simulation with its first run.
func checkRepeat(c *checks, what string, first, again simSig) {
	c.check(first.events == again.events, "%s: sim.events_per_req drifted (%d -> %d events)", what, first.events, again.events)
	c.check(first.senses == again.senses, "%s: nand.senses_per_req drifted (%d -> %d senses)", what, first.senses, again.senses)
	c.check(first.writeAmp == again.writeAmp, "%s: ssd.write_amp drifted (%v -> %v)", what, first.writeAmp, again.writeAmp)
	c.check(first.stats == again.stats, "%s: simulated statistics drifted:\n    %s\n    %s", what, first.stats, again.stats)
}

func (a *simAcc) add(m *ssd.Metrics, events uint64, runNS int64, runObjs uint64, reg *obs.Registry, next *timedWorkload) {
	a.reqs += int64(m.RequestsCompleted)
	a.runNS += runNS
	a.runObjs += runObjs
	a.events += events
	a.senses += senses(m)
	a.pageReads += m.PageReads
	a.retryRounds += m.RetryRounds
	a.predictions += m.Predictions
	a.mispredictions += m.Mispredictions
	a.chanUncor += m.Channels.Uncor
	a.chanWait += m.Channels.ECCWait
	a.chanTotal += m.Channels.Total
	a.hostPages += hostPages(m)
	a.moved += m.PagesRelocated + m.ReclaimPagesMigrated
	a.gcRuns += m.GCRuns
	a.reclaims += m.ReadReclaims
	snap := reg.Snapshot()
	a.cacheHits += snap.Counters["ssd_write_cache_hits_total"]
	a.cacheStalls += snap.Counters["ssd_write_cache_stalls_total"]
	a.nextNS += next.ns
	a.nextCalls += next.calls
}

// simLayers are the layers both simulator workloads load: device run,
// event engine and workload generator.
func (a *simAcc) simLayers() map[string]float64 {
	reqs := float64(a.reqs)
	return map[string]float64{
		"ssd.run_us_per_req": ratio(float64(a.runNS)/1e3, reqs),
		"ssd.allocs_per_req": ratio(float64(a.runObjs), reqs),
		"sim.events_per_req": ratio(float64(a.events), reqs),
		"sim.ns_per_event":   ratio(float64(a.runNS), float64(a.events)),
		"trace.next_ns":      ratio(float64(a.nextNS), float64(a.nextCalls)),
	}
}

// readLayers are the read-retry path's layers (nand, odear and ecc
// models), loaded by grid-closed's worn cells.
func (a *simAcc) readLayers(m map[string]float64) {
	reqs := float64(a.reqs)
	m["nand.senses_per_req"] = ratio(float64(a.senses), reqs)
	m["nand.page_rber_ns"] = a.pageRBERNS
	m["odear.predictions_per_req"] = ratio(float64(a.predictions), reqs)
	m["odear.mispredict_frac"] = ratio(float64(a.mispredictions), float64(a.predictions))
	m["ssd.retry_rounds_per_page"] = ratio(float64(a.retryRounds), float64(a.pageReads))
	m["ssd.chan_uncor_frac"] = ratio(float64(a.chanUncor), float64(a.chanTotal))
	m["ssd.chan_eccwait_frac"] = ratio(float64(a.chanWait), float64(a.chanTotal))
}

// writeLayers are the write path's layers (write cache, FTL, GC,
// read-reclaim), loaded by replay-write.
func (a *simAcc) writeLayers(m map[string]float64) {
	reqs := float64(a.reqs)
	m["ssd.write_amp"] = ratio(float64(a.hostPages+a.moved), float64(a.hostPages))
	m["ssd.gc_runs_per_kreq"] = ratio(1e3*float64(a.gcRuns), reqs)
	m["ssd.read_reclaims_per_kreq"] = ratio(1e3*float64(a.reclaims), reqs)
	m["ssd.cache_hit_frac"] = ratio(float64(a.cacheHits), float64(a.cacheHits+a.cacheStalls))
}

// timedWorkload times each Next call of the generator it wraps. It
// forwards the generator's retention-age model, so a simulation run
// through it is identical to one run on the bare generator.
type timedWorkload struct {
	g         *trace.Generator
	ns, calls int64
}

func (w *timedWorkload) Next() trace.Request {
	start := time.Now()
	r := w.g.Next()
	w.ns += int64(time.Since(start))
	w.calls++
	return r
}

func (w *timedWorkload) InitialAgeDays(lpn int64) float64 { return w.g.InitialAgeDays(lpn) }

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// probePageRBER times nand.Model.PageRBER on conditions drawn like the
// workload's: its P/E points, 1–30-day retention, up to maxReads reads.
func probePageRBER(seed uint64, pes []int, maxReads int64) float64 {
	m := nand.NewDefaultModel(seed)
	rng := rand.New(rand.NewPCG(seed, 31))
	type cond struct {
		block int
		pt    nand.PageType
		pe    int
		days  float64
		reads int64
	}
	cs := make([]cond, 1024)
	for i := range cs {
		cs[i] = cond{rng.IntN(1 << 15), nand.PageTypeOf(rng.IntN(3)), pes[rng.IntN(len(pes))],
			1 + 29*rng.Float64(), rng.Int64N(maxReads + 1)}
	}
	const n = 1 << 16
	start := time.Now()
	for i := 0; i < n; i++ {
		c := cs[i&1023]
		sink += m.PageRBER(c.block, c.pt, c.pe, c.days, c.reads, nand.DefaultVref)
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// probeSketchAdd times stats.Sketch.Add on latency-like values (µs).
func probeSketchAdd(seed uint64) float64 {
	s := stats.NewSketch(stats.SketchAlpha)
	rng := rand.New(rand.NewPCG(seed, 37))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = 80 * (1 + rng.ExpFloat64())
	}
	const n = 1 << 20
	start := time.Now()
	for i := 0; i < n; i++ {
		s.Add(xs[i&1023])
	}
	d := time.Since(start)
	sink += s.Mean()
	return float64(d.Nanoseconds()) / n
}
