package ssd

import (
	"fmt"
	"math"

	"repro/internal/ecc"
	"repro/internal/faults"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/odear"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Workload supplies requests to the closed-loop host and the initial
// retention age of cold data. trace.Generator and trace.Replayer
// implement it.
type Workload interface {
	Next() trace.Request
	InitialAgeDays(lpn int64) float64
}

// FiniteWorkload is a workload that can run dry, e.g. a streamed
// trace file. The open-loop host probes Exhausted before every Next
// and ends the run early when it reports true, so Run(n) with a large
// n replays "the whole trace". Closed-loop hosts do not probe it:
// they are sized by request count, not stream length.
type FiniteWorkload interface {
	Workload
	Exhausted() bool
}

// SSD is one simulated device instance. Build it with New, run it
// with Run; an instance is single-use.
type SSD struct {
	cfg   Config
	eng   *sim.Engine
	model *nand.Model
	dec   *ecc.Engine
	acc   odear.AccuracyModel
	ftl   *FTL

	dies     []*dieStation
	channels []*channelStation
	host     *sim.Resource

	predictRNG  *sim.RNG
	sentinelRNG *sim.RNG

	// inj answers fault-injection queries; nil (the default) injects
	// nothing and costs nothing on the hot paths.
	inj *faults.Injector

	// reclaim runs the read-reclaim slow path for a threshold-crossing
	// block; New binds it to reclaimBlock. The indirection is the cold
	// boundary of the per-sense hot path: the crossing fires once per
	// ReadReclaimThreshold senses, so the migration machinery behind it
	// (FTL relocation, die occupancy) may allocate — and tests stub the
	// seam to observe trigger decisions in isolation.
	reclaim func(bid int)

	// blocks is the per-block record, by dense block id.
	blocks []blockState

	// deadDieCleared marks dies whose disturb counters were zeroed on
	// dropout, so the sweep runs once per die.
	deadDieCleared []bool

	cache    *writeCache
	flushers []*dieFlusher

	workload Workload
	toIssue  int
	inFlight int
	lastDone sim.Time

	// Bounded open-loop admission (cfg.MaxInFlight > 0): when the ring
	// is full the one pending arrival parks here until a completion
	// admits it. Because arrivals are scheduled as a chain, holding
	// exactly one request is enough to stall the entire source — the
	// stream is simply not pulled — so memory stays flat at any
	// intensity.
	held    bool
	heldReq trace.Request
	heldAt  sim.Time

	// The open-loop source has at most one arrival scheduled at a
	// time, so its request waits here for arrive, the handler New
	// binds once.
	nextReq     trace.Request
	nextArrival sim.Time
	onArrival   func()

	// Free lists of host-request and die-command records (request.go).
	reqFree []*hostReq
	cmdFree []*dieCmd

	// lastArrival is the open-loop host's virtual arrival clock: each
	// request's latency anchor is max(req.At, previous arrival), so a
	// stalled admission chain (full ring) cannot shift arrivals later
	// and hide head-of-line wait, and a wrapped trace cannot move them
	// into the past.
	lastArrival sim.Time

	spans   []Span
	nextCmd int

	// readLat streams per-request read latencies (µs) into the
	// configured registry; nil (a no-op) when observability is off.
	readLat *obs.Histogram

	// runErr is the first non-fatal device error of the run (dropped
	// write, cache underflow); surfaced by finishRun instead of a
	// panic.
	runErr error

	m Metrics
}

// blockState is the device's record of one physical block.
type blockState struct {
	// reads is the disturb state: every real array sense bumps it via
	// noteSense, and an erase (GC victim, read-reclaim, retirement, die
	// death) clears it. senses counts the same senses but is never
	// cleared — the epoch fast-forward extrapolates from it. int64: a
	// drive-year on a hot-read trace strands an int32.
	reads  int64
	senses int64
	// erases counts erases (wear on top of PECycles); reclaimErases is
	// the subset caused by read-reclaim. A block wears out within
	// thousands of erases, so int32 holds any count and keeps the
	// record at 40 bytes.
	erases        int32
	reclaimErases int32
	// refreshedAt is when read-reclaim last rewrote the block in place
	// (see refreshedInPlace).
	refreshedAt sim.Time
	// variation memoizes the NAND model's BlockVariation, filled on
	// the block's first read (0 until then: the multiplier is a
	// positive exponential). It lives in the device rather than the
	// model because models are shared across concurrent runs.
	variation float64
}

// refreshedInPlace reports whether read-reclaim has rewritten a
// pre-fill (cold) block in place, restarting its retention clock at
// refreshedAt. Pre-fill blocks are not FTL-managed: reclaim erases
// one only by refreshing it, so for them a reclaim erase is the mark.
func (b *blockState) refreshedInPlace() bool { return b.reclaimErases > 0 }

// cmdResult is one die command's completion report: the
// graceful-degradation outcome threaded back to the host model.
type cmdResult struct {
	// uncPages counts pages that exhausted the retry ladder and were
	// reported uncorrectable.
	uncPages int
	// writeErr reports that the FTL could not place the command's
	// writes.
	writeErr bool
}

// failRun records the first device error of the run; finishRun
// returns it instead of letting the device panic mid-simulation.
func (s *SSD) failRun(err error) {
	if s.runErr == nil {
		s.runErr = err
	}
}

// New assembles an SSD from the configuration.
func New(cfg Config, w Workload) (*SSD, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if w == nil {
		return nil, fmt.Errorf("ssd: nil workload")
	}
	eng := sim.NewEngine()
	s := &SSD{
		cfg:         cfg,
		eng:         eng,
		model:       nand.NewModel(cfg.NANDParams, cfg.Seed),
		dec:         ecc.NewEngine(),
		acc:         accuracyModelFor(cfg),
		ftl:         NewFTL(cfg.Geometry),
		host:        sim.NewResource(eng, "host", 1),
		predictRNG:  sim.NewRNG(cfg.Seed, 101),
		sentinelRNG: sim.NewRNG(cfg.Seed, 102),
		inj:         faults.New(cfg.Faults, cfg.Seed),
		blocks:      make([]blockState, cfg.Geometry.TotalBlocks()),
		workload:    w,
	}
	s.deadDieCleared = make([]bool, cfg.Geometry.TotalDies())
	s.reclaim = s.reclaimBlock
	s.onArrival = s.arrive
	s.cache = newWriteCache(cfg.WriteCachePages, s.failRun)
	if cfg.Faults.DieDropoutRate > 0 {
		// Writes aimed at a dead die fail over to the next live one;
		// the dead die's disturb counters are cleared on first sight so
		// the re-homed data does not inherit the old blocks' senses.
		s.ftl.DieDown = func(dieIdx int) bool {
			down := s.inj.DieDown(dieIdx)
			if down {
				s.noteDeadDie(dieIdx)
			}
			return down
		}
	}
	// Dynamic wear leveling: allocation prefers the least-erased
	// free block.
	s.ftl.WearOf = func(plane nand.Address, block int) int {
		a := plane
		a.Block = block
		return int(s.blocks[cfg.Geometry.BlockID(a)].erases)
	}
	s.m.Scheme = cfg.Scheme
	s.m.PECycles = cfg.PECycles
	// Observability hooks: the ECC engine streams decode latencies,
	// recordCompletion streams read latencies. Both handles are nil-safe
	// no-ops when cfg.Obs is nil.
	s.dec.Hist = cfg.Obs.Histogram("ecc_decode_latency_us")
	s.readLat = cfg.Obs.Histogram("ssd_read_latency_us")
	recordSpans := cfg.RecordSpans || cfg.Trace != nil
	for d := 0; d < cfg.Geometry.TotalDies(); d++ {
		die := newDieStation(eng, cfg.DiePolicy, cfg.ResumePenalty)
		die.name = fmt.Sprintf("die%d", d)
		if recordSpans {
			die.record = s.addSpan
		}
		s.dies = append(s.dies, die)
	}
	for ch := 0; ch < cfg.Geometry.Channels; ch++ {
		st := newChannelStation(eng, cfg.Timing.TDMAPage, cfg.ECCBufferSlots)
		st.name = fmt.Sprintf("ch%d", ch)
		if recordSpans {
			st.record = s.addSpan
		}
		if cfg.Faults.ChannelCorruptRate > 0 {
			st.corrupt = s.inj.TransferCorrupted
		}
		s.channels = append(s.channels, st)
	}
	for d := 0; d < cfg.Geometry.TotalDies(); d++ {
		s.flushers = append(s.flushers, newDieFlusher(s, s.dies[d], s.channels[d/cfg.Geometry.DiesPerChan]))
	}
	return s, nil
}

// accuracyModelFor derives the RP accuracy model, honouring the
// ablation override.
func accuracyModelFor(cfg Config) odear.AccuracyModel {
	m := odear.DefaultAccuracyModel(nand.ECCCapabilityRBER)
	if cfg.PredictionFloor > 0 {
		m.Floor = cfg.PredictionFloor
	}
	return m
}

// Engine exposes the simulation clock (for tests).
func (s *SSD) Engine() *sim.Engine { return s.eng }

// Run executes nRequests requests in closed loop at the configured
// queue depth and returns the collected metrics.
func (s *SSD) Run(nRequests int) (*Metrics, error) {
	if nRequests <= 0 {
		return nil, fmt.Errorf("ssd: nRequests = %d", nRequests)
	}
	s.toIssue = nRequests
	if s.cfg.OpenLoop {
		s.scheduleNextArrival()
	} else {
		initial := s.cfg.QueueDepth
		if initial > nRequests {
			initial = nRequests
		}
		for i := 0; i < initial; i++ {
			s.issueNext()
		}
	}
	s.eng.Run()
	if err := s.finishRun(); err != nil {
		return nil, err
	}
	return &s.m, nil
}

// finishRun verifies the device drained cleanly and folds the final
// accounting into the metrics.
func (s *SSD) finishRun() error {
	if s.runErr != nil {
		return s.runErr
	}
	if s.inFlight != 0 {
		return fmt.Errorf("ssd: simulation drained with %d requests in flight", s.inFlight)
	}
	if !s.cache.idle() {
		return fmt.Errorf("ssd: write cache not drained at end of run")
	}
	for _, f := range s.flushers {
		if !f.idle() {
			return fmt.Errorf("ssd: die flusher not drained at end of run")
		}
	}
	for _, d := range s.dies {
		if !d.Idle() {
			return fmt.Errorf("ssd: die not drained at end of run")
		}
		s.m.Suspensions += d.Suspensions()
	}
	// Bandwidth is measured to the completion of the last host
	// request; background flushes may run on slightly past it.
	s.m.Makespan = s.lastDone
	for _, ch := range s.channels {
		if !ch.quiesced() {
			return fmt.Errorf("ssd: channel not quiesced at drain")
		}
		s.m.Channels.add(ch.usage())
		s.m.Faults.ChannelCorruptions += ch.corruptions
	}
	s.m.GCRuns, s.m.PagesRelocated = s.ftl.GCStats()
	s.m.Faults.DieFailovers = s.ftl.Failovers()
	s.foldObs()
	return nil
}

func (s *SSD) issueNext() {
	if s.toIssue == 0 {
		return
	}
	s.toIssue--
	s.admit(s.workload.Next(), s.eng.Now(), true)
}

// scheduleNextArrival drives the open-loop host: each request is
// admitted at its trace arrival time, independent of completions —
// unless the bounded ring is full, in which case the arrival parks
// until a completion admits it (its latency still counts from the
// arrival instant, so head-of-line wait shows up in the tail).
func (s *SSD) scheduleNextArrival() {
	if s.toIssue == 0 {
		return
	}
	if fw, ok := s.workload.(FiniteWorkload); ok && fw.Exhausted() {
		s.toIssue = 0
		return
	}
	s.toIssue--
	req := s.workload.Next()
	arrival := req.At
	if arrival < s.lastArrival {
		arrival = s.lastArrival
	}
	s.lastArrival = arrival
	fire := arrival
	if fire < s.eng.Now() {
		fire = s.eng.Now()
	}
	s.nextReq, s.nextArrival = req, arrival
	s.eng.At(fire, s.onArrival)
}

// arrive admits the scheduled open-loop arrival and schedules the
// next one, or parks the arrival when the bounded ring is full.
func (s *SSD) arrive() {
	req, arrival := s.nextReq, s.nextArrival
	s.nextReq = trace.Request{}
	if s.cfg.MaxInFlight > 0 && s.inFlight >= s.cfg.MaxInFlight {
		s.held = true
		s.heldReq = req
		s.heldAt = arrival
		s.m.HeldArrivals++
		return
	}
	s.admit(req, arrival, false)
	s.scheduleNextArrival()
}

// admit puts one request in flight, its latency anchored at arrival.
func (s *SSD) admit(req trace.Request, arrival sim.Time, chain bool) {
	s.inFlight++
	if s.inFlight > s.m.PeakInFlight {
		s.m.PeakInFlight = s.inFlight
	}
	s.runRequest(req, arrival, chain, nil)
}

// recordCompletion accounts a finished host request for every host:
// counters, makespan, bytes and, for a read, its latency (µs) into
// ReadLatencies and the ssd_read_latency_us histogram. It returns the
// bytes and the latency for the host's own accounting.
//
//riflint:hotpath
func (s *SSD) recordCompletion(req trace.Request, arrival sim.Time, res cmdResult) (bytes int64, lat float64) {
	s.inFlight--
	s.m.RequestsCompleted++
	s.lastDone = s.eng.Now()
	if res.uncPages > 0 {
		s.m.MediaErrorRequests++
	}
	bytes = int64(req.Pages) * int64(s.cfg.Geometry.PageBytes)
	if req.Op != trace.Read {
		s.m.BytesWritten += bytes
		return bytes, 0
	}
	s.m.BytesRead += bytes
	lat = (s.eng.Now() - arrival).Microseconds()
	s.m.ReadLatencies.Add(lat)
	s.readLat.Observe(lat)
	return bytes, lat
}

// completeRequest finishes a built-in host request. In closed loop
// (chain == true) it admits the next request; in bounded open loop it
// admits the held arrival, if any, and resumes the arrival chain.
func (s *SSD) completeRequest(req trace.Request, arrival sim.Time, chain bool, res cmdResult) {
	s.recordCompletion(req, arrival, res)
	if chain {
		s.issueNext()
	} else if s.held {
		s.held = false
		held, heldAt := s.heldReq, s.heldAt
		s.heldReq = trace.Request{}
		s.admit(held, heldAt, false)
		s.scheduleNextArrival()
	}
}

// pageView is the resolved physical and reliability state of one page
// at command issue.
type pageView struct {
	lpn       int64
	addr      nand.Address
	blockID   int
	ptype     nand.PageType
	retention float64 // days
	rberFirst float64 // at the scheme's first-read VREF mode
	rberRetry float64 // after VREF adjustment (near-optimal)
	fails     bool    // first read exceeds the ECC capability
}

// resolvePages looks up every page of a command into its scratch
// pages slice and evaluates each page's RBER under the scheme's
// first-read VREF mode and after VREF adjustment — both from one
// evaluation of the block's condition.
//
//riflint:hotpath
func (s *SSD) resolvePages(c *dieCmd) {
	firstMode := vrefModeForScheme(s.cfg.Scheme)
	c.pages = c.pages[:c.cmd.n]
	for i := range c.pages {
		lpn := c.cmd.lpn + int64(i)
		addr, writtenAt, written := s.ftl.Lookup(lpn)
		bid := s.cfg.Geometry.BlockID(addr)
		b := &s.blocks[bid]
		var age float64
		switch {
		case written:
			age = (s.eng.Now() - writtenAt).Seconds() / 86400
		case b.refreshedInPlace():
			// Pre-fill block rewritten in place by read-reclaim: its
			// retention clock restarts at the refresh.
			age = (s.eng.Now() - b.refreshedAt).Seconds() / 86400
		default:
			age = s.workload.InitialAgeDays(lpn)
		}
		reads := b.reads
		s.noteSense(bid)
		pt := nand.PageTypeOf(addr.Page)
		pe := s.cfg.PECycles + int(b.erases)
		if b.variation == 0 {
			b.variation = s.model.BlockVariation(bid)
		}
		first, retry := s.model.PageRBERPair(b.variation, pt, pe, age, reads, firstMode, nand.OptimalVref)
		if s.inj.BlockStuck(bid) {
			// Grown-bad block: every read of it is hopeless at any
			// VREF, so the page rides the retry ladder to exhaustion.
			s.m.Faults.StuckPageReads++
			first, retry = stuckRBER, stuckRBER
		}
		c.pages[i] = pageView{
			lpn:       lpn,
			addr:      addr,
			blockID:   bid,
			ptype:     pt,
			retention: age,
			rberFirst: first,
			rberRetry: retry,
			fails:     first > s.dec.Capability,
		}
	}
}

// dieOf reports the die resource, channel station and dense die index
// of a command.
func (s *SSD) dieOf(cmd dieCommand) (*dieStation, *channelStation, int) {
	addr, _, _ := s.ftl.Lookup(cmd.lpn)
	dieIdx := s.cfg.Geometry.DieID(addr)
	return s.dies[dieIdx], s.channels[addr.Channel], dieIdx
}

// stuckRBER is the effective error rate of a grown-bad block's pages:
// far past any ECC capability, so every decode fails at full latency.
const stuckRBER = 0.5

// senseTime charges injected transient sense failures on top of a
// base array-read occupancy: each glitched sense is re-issued at full
// tR, and each re-issue is a real array sense, so it disturbs the
// pages' blocks again. A no-op (no draw) when the class is off.
func (s *SSD) senseTime(base sim.Time, views []pageView) sim.Time {
	n := s.inj.SenseRetries()
	if n > 0 {
		s.m.Faults.TransientSenseFaults += int64(n)
		base += sim.Time(n) * s.cfg.Timing.TR
		for i := 0; i < n; i++ {
			s.noteSenses(views)
		}
	}
	return base
}

// noteSense records one real array sense of a block: it advances the
// disturb state and, when the read-reclaim threshold is crossed,
// triggers the background migration that resets it. This is the single
// funnel every sense goes through — first reads, RVS re-reads,
// retry-ladder re-senses, Sentinel's extra read, and injected-glitch
// re-issues — so disturb accounting cannot silently miss a path again.
//
//riflint:hotpath
func (s *SSD) noteSense(bid int) {
	b := &s.blocks[bid]
	b.senses++
	n := b.reads + 1
	b.reads = n
	if t := s.cfg.ReadReclaimThreshold; t > 0 && n >= t {
		s.reclaim(bid)
	}
}

// noteSenses records one sense per page view.
func (s *SSD) noteSenses(views []pageView) {
	for i := range views {
		s.noteSense(views[i].blockID)
	}
}

// reclaimBlock is the read-reclaim background job for one
// threshold-crossing block: migrate its valid pages elsewhere, erase
// it (clearing the disturb counter, exactly like the GC-victim erase),
// and charge the die with the migration work so reclaim competes with
// GC and host traffic for die time. Pre-fill (cold-region) blocks are
// not FTL-managed, so they are refreshed in place instead.
func (s *SSD) reclaimBlock(bid int) {
	// The erase clears accumulated disturb whether or not migration
	// proceeds; a skipped migration (dead die, no free block) simply
	// re-arms the counter.
	b := &s.blocks[bid]
	b.reads = 0
	addr := s.cfg.Geometry.BlockAddr(bid)
	if s.ftl.blockRetired(addr) {
		return
	}
	dieIdx := s.cfg.Geometry.DieID(addr)
	if s.inj.DieDown(dieIdx) {
		return
	}
	var work *GCWork
	if addr.Block < s.ftl.WriteBase() {
		// Pre-fill block: rewrite in place, restarting its retention
		// clock from now.
		work = &GCWork{PagesRelocated: s.cfg.Geometry.PagesPerBlock, Erases: 1}
		b.refreshedAt = s.eng.Now()
	} else {
		w, err := s.ftl.ReclaimBlock(addr)
		if err != nil {
			s.failRun(err)
			return
		}
		if w == nil {
			return
		}
		work = w
	}
	b.erases += int32(work.Erases)
	b.reclaimErases += int32(work.Erases)
	s.m.ReadReclaims++
	s.m.ReclaimPagesMigrated += int64(work.PagesRelocated)
	// Occupy the die with the migration; no completion callback — the
	// work only delays whatever the die does next.
	s.dies[dieIdx].Program(s.gcTime(work), nil)
}

// noteDeadDie zeroes the disturb counters of a dropped-out die once:
// its array is gone, so re-homed replacement data must not inherit the
// dead blocks' accumulated senses.
func (s *SSD) noteDeadDie(dieIdx int) {
	if s.deadDieCleared[dieIdx] {
		return
	}
	s.deadDieCleared[dieIdx] = true
	per := s.cfg.Geometry.PlanesPerDie * s.cfg.Geometry.BlocksPerPlane
	for b := dieIdx * per; b < (dieIdx+1)*per; b++ {
		s.blocks[b].reads = 0
	}
}

// BlockCounters is a snapshot of the per-block wear and disturb state,
// taken with BlockState and replayed into a fresh device with
// SeedBlockState — the epoch fast-forward mechanism of the drive-age
// sweep.
type BlockCounters struct {
	// Reads is the net disturb counter (senses since last erase).
	Reads []int64
	// Senses is the gross sense counter, never cleared by erases.
	Senses []int64
	// Erases is the per-block erase counter (wear beyond Config.PECycles).
	Erases []int64
	// ReclaimErases is the subset of Erases performed by read-reclaim
	// during the run (always zero at seed time). The fast-forward needs
	// the split: reclaim wear is re-derived analytically from the gross
	// sense rate, so scaling it again would double-count it.
	ReclaimErases []int64
}

// BlockState snapshots the per-block counters.
func (s *SSD) BlockState() BlockCounters {
	n := len(s.blocks)
	c := BlockCounters{
		Reads:         make([]int64, n),
		Senses:        make([]int64, n),
		Erases:        make([]int64, n),
		ReclaimErases: make([]int64, n),
	}
	for i := range s.blocks {
		b := &s.blocks[i]
		c.Reads[i], c.Senses[i] = b.reads, b.senses
		c.Erases[i], c.ReclaimErases[i] = int64(b.erases), int64(b.reclaimErases)
	}
	return c
}

// SeedBlockState loads residual per-block disturb (reads) and wear
// (erases) into a freshly built device, before Run. Either slice may
// be nil to leave that counter at zero.
func (s *SSD) SeedBlockState(reads, erases []int64) error {
	n := s.cfg.Geometry.TotalBlocks()
	if reads != nil {
		if len(reads) != n {
			return fmt.Errorf("ssd: SeedBlockState reads length %d, want %d", len(reads), n)
		}
		for i, r := range reads {
			s.blocks[i].reads = r
		}
	}
	if erases != nil {
		if len(erases) != n {
			return fmt.Errorf("ssd: SeedBlockState erases length %d, want %d", len(erases), n)
		}
		for i, e := range erases {
			if e < 0 || e > math.MaxInt32 {
				return fmt.Errorf("ssd: SeedBlockState erases[%d] = %d out of range", i, e)
			}
			s.blocks[i].erases = int32(e)
		}
	}
	return nil
}

// decodeTimeout draws one page's injected LDPC decode-timeout fault.
func (s *SSD) decodeTimeout() bool {
	if s.inj.DecodeTimeout() {
		s.m.Faults.DecodeTimeouts++
		return true
	}
	return false
}

// timeoutRBER is the effective error rate charged to a timed-out
// decode: past capability, so the latency model bills a full failing
// decode and the page enters the scheme's retry ladder.
func (s *SSD) timeoutRBER() float64 { return 4 * s.dec.Capability }

// retireBlock retires the block behind a retry-exhausted page when
// the block is genuinely grown bad (every read of it is hopeless), so
// the allocator stops handing it out. Natural per-page exhaustion at
// high wear does not retire: the block's other pages are still good.
func (s *SSD) retireBlock(p pageView) {
	if !s.inj.BlockStuck(p.blockID) || s.ftl.blockRetired(p.addr) {
		return
	}
	s.blocks[p.blockID].reads = 0 // retirement erases the block
	s.m.Faults.GrownBadBlocks++
	s.ftl.RetireBlock(p.addr)
}

// hostTransfer moves pages across the host link, then runs next.
func (s *SSD) hostTransfer(pages int, next func()) {
	if s.cfg.Timing.THostPage == 0 {
		next()
		return
	}
	s.host.Use(sim.Time(pages)*s.cfg.Timing.THostPage, next)
}

// decodeLatency sums per-page tECC for the given RBERs.
func (s *SSD) decodeLatency(rbers []float64) sim.Time {
	var t sim.Time
	for _, r := range rbers {
		t += s.dec.Decode(r).Latency
	}
	return t
}
