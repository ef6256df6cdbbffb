package ssd

import (
	"fmt"
	"math"

	"repro/internal/ecc"
	"repro/internal/faults"
	"repro/internal/nand"
	"repro/internal/odear"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Workload supplies requests to a host and the initial retention age
// of the cold data they read (Submit's src). trace.Generator and
// trace.Replayer implement it.
type Workload interface {
	Next() trace.Request
	InitialAgeDays(lpn int64) float64
}

// SSD is one simulated device instance. Build it with New and run it
// with Run, RunQueues, or a host of its own on the host port (Submit,
// OnComplete, Drain); an instance is single-use.
type SSD struct {
	cfg   Config
	eng   *sim.Engine
	model *nand.Model
	dec   *ecc.Engine
	acc   odear.AccuracyModel
	ftl   *FTL

	// The stations are held by value: each is the sim.Handler its own
	// events fire, so none holds a bound callback, and the device's
	// dies, channels and flushers are one allocation per kind.
	dies     []dieStation
	channels []channelStation
	host     hostLink

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

	// deadDieCleared marks dies whose disturb counters were zeroed on
	// dropout, so the sweep runs once per die.
	deadDieCleared []bool

	cache     writeCache
	flushers  []dieFlusher
	flushPool flushPool

	// workload feeds Run.
	workload Workload
	inFlight int
	lastDone sim.Time

	// onComplete is the host port's completion handler (OnComplete).
	onComplete func(Completion)

	// Free lists of host-request and die-command records, and the
	// slabs new records and their scratch are carved from (request.go).
	reqFree  []*hostReq
	cmdFree  []*dieCmd
	reqSlab  []hostReq
	cmdSlab  []dieCmd
	pageSlab []pageView
	iterSlab []int
	failSlab []int
	// rings holds the slabs the stations' queues carve their first
	// buffers from (queue.go).
	rings ringSlabs

	nextCmd int

	// rberEvals counts the RBER enclosures the read path evaluated and
	// rberExact the exact RBERs it fell back to, when an enclosure
	// straddled a decision threshold or fell outside nand's table.
	rberEvals, rberExact int64

	// runErr is the first non-fatal device error of the run (dropped
	// write, cache underflow); surfaced by Drain instead of a
	// panic.
	runErr error

	m Metrics
}

// cmdResult is one die command's completion report: the
// graceful-degradation outcome threaded back to the host model.
type cmdResult struct {
	// uncPages counts pages that exhausted the retry ladder and were
	// reported uncorrectable.
	uncPages int
}

// failRun records the first device error of the run; Drain
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
		host:        hostLink{eng: eng},
		cache:       writeCache{capacity: cfg.WriteCachePages},
		predictRNG:  sim.NewRNG(cfg.Seed, 101),
		sentinelRNG: sim.NewRNG(cfg.Seed, 102),
		inj:         faults.New(cfg.Faults, cfg.Seed),
		workload:    w,
	}
	s.deadDieCleared = make([]bool, cfg.Geometry.TotalDies())
	s.reclaim = s.reclaimBlock
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
	s.m.Scheme = cfg.Scheme
	s.m.PECycles = cfg.PECycles
	// The ECC engine records decode latencies only for a registry,
	// which foldObs merges them into at drain.
	if cfg.Obs != nil {
		s.dec.Latencies = new(stats.Sketch)
	}
	// A station's name only labels its spans, so it is made only when
	// a tracer records them.
	nDies := cfg.Geometry.TotalDies()
	s.dies = make([]dieStation, nDies)
	for d := range s.dies {
		die := &s.dies[d]
		*die = newDieStation(eng, cfg.DiePolicy, cfg.ResumePenalty, &s.rings.ops)
		if cfg.Trace != nil {
			die.name = fmt.Sprintf("die%d", d)
			die.record = cfg.Trace.Span
		}
	}
	s.channels = make([]channelStation, cfg.Geometry.Channels)
	for ch := range s.channels {
		st := &s.channels[ch]
		*st = newChannelStation(eng, cfg.Timing.TDMAPage, cfg.ECCBufferSlots, &s.rings.jobs)
		if cfg.Trace != nil {
			st.name = fmt.Sprintf("ch%d", ch)
			st.record = cfg.Trace.Span
		}
		if cfg.Faults.ChannelCorruptRate > 0 {
			st.corrupt = s.inj.TransferCorrupted
		}
	}
	// Every flusher's per-plane queues are one slice of the device's.
	planes := cfg.Geometry.PlanesPerDie
	queues := make([]planeQueue, nDies*planes)
	s.flushers = make([]dieFlusher, nDies)
	for d := range s.flushers {
		s.flushers[d] = dieFlusher{
			ssd:      s,
			die:      &s.dies[d],
			ch:       &s.channels[d/cfg.Geometry.DiesPerChan],
			perPlane: queues[d*planes : (d+1)*planes : (d+1)*planes],
		}
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

// Engine exposes the simulation clock: a host driver schedules its
// arrivals on it and reads the current time for Submit.
func (s *SSD) Engine() *sim.Engine { return s.eng }

// Run executes nRequests requests in closed loop at the configured
// queue depth and returns the collected metrics: the one-queue case of
// RunQueues, fed by the device's own workload.
func (s *SSD) Run(nRequests int) (*Metrics, error) {
	m, _, err := s.RunQueues([]HostQueue{{Workload: s.workload}}, nRequests)
	return m, err
}

// resolvePages looks up every page of a command into its scratch
// pages slice, evaluates each page's condition and encloses its RBER
// under the scheme's first-read VREF mode, tightly enough to settle
// whether the first read fails. The retry RBER is left to retryFails,
// since most pages never need it; the Zero scheme, which never looks
// at an error rate, evaluates none.
//
//riflint:hotpath
func (s *SSD) resolvePages(c *dieCmd) {
	firstMode := vrefModeForScheme(s.cfg.Scheme)
	c.pages = c.pages[:c.cmd.n]
	for i := range c.pages {
		lpn := c.cmd.lpn + int64(i)
		addr, writtenAt, written := s.ftl.Lookup(lpn)
		bid := s.cfg.Geometry.BlockID(addr)
		b := s.ftl.blocks.at(bid)
		var age float64
		switch {
		case written:
			age = (s.eng.Now() - writtenAt).Seconds() / 86400
		case b.refreshedInPlace():
			// Pre-fill block rewritten in place by read-reclaim: its
			// retention clock restarts at the refresh.
			age = (s.eng.Now() - b.refreshedAt).Seconds() / 86400
		default:
			age = c.parent.src.InitialAgeDays(lpn)
		}
		reads := b.reads
		s.noteSense(bid)
		v := &c.pages[i]
		*v = pageView{blockID: bid, ptype: nand.PageTypeOf(addr.Page)}
		switch {
		case s.inj.BlockStuck(bid):
			// Grown-bad block: every read of it is hopeless at any
			// VREF, so the page rides the retry ladder to exhaustion.
			s.m.Faults.StuckPageReads++
			v.first, v.retry = exactly(stuckRBER), exactly(stuckRBER)
		case s.cfg.Scheme != Zero:
			if b.variation == 0 {
				b.variation = s.model.BlockVariation(bid)
			}
			v.cond = s.model.Condition(b.variation, s.cfg.PECycles+int(b.erases), age, reads)
			s.encloseFirst(v, firstMode)
		}
		v.fails = v.first.lo > s.dec.Capability
	}
}

// dieOf reports the die resource, channel station and dense die index
// of a command.
func (s *SSD) dieOf(cmd dieCommand) (*dieStation, *channelStation, int) {
	addr, _, _ := s.ftl.Lookup(cmd.lpn)
	dieIdx := s.cfg.Geometry.DieID(addr)
	return &s.dies[dieIdx], &s.channels[addr.Channel], dieIdx
}

// stuckRBER is the effective error rate of a grown-bad block's pages:
// far past any ECC capability, so every decode fails at full latency.
const stuckRBER = 0.5

// senseTime charges injected transient sense failures on top of a
// base array-read occupancy: each glitched sense is re-issued at full
// tR, and each re-issue is a real array sense, so it disturbs the
// sensed pages' blocks again — every page of the command's first
// read, only the failing ones of a retry. A no-op (no draw) when the
// class is off.
func (c *dieCmd) senseTime(base sim.Time, retry bool) sim.Time {
	s := c.s
	n := s.inj.SenseRetries()
	if n > 0 {
		s.m.Faults.TransientSenseFaults += int64(n)
		base += sim.Time(n) * s.cfg.Timing.TR
		for i := 0; i < n; i++ {
			if retry {
				c.noteFailedSenses()
				continue
			}
			for j := range c.pages {
				s.noteSense(c.pages[j].blockID)
			}
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
	b := s.ftl.blocks.at(bid)
	b.senses++
	n := b.reads + 1
	b.reads = n
	if t := s.cfg.ReadReclaimThreshold; t > 0 && n >= t {
		s.reclaim(bid)
	}
}

// noteFailedSenses records one sense of each page still failing.
func (c *dieCmd) noteFailedSenses() {
	for _, i := range c.failed {
		c.s.noteSense(c.pages[i].blockID)
	}
}

// reclaimBlock is the read-reclaim background job for one
// threshold-crossing block: migrate its valid pages elsewhere, erase
// it (the FTL counts the erase, as it does a GC victim's), and charge
// the die with the migration work so reclaim competes with GC and host
// traffic for die time. Pre-fill (cold-region) blocks are not
// FTL-managed, so they are refreshed in place instead, and the erase
// is counted here.
func (s *SSD) reclaimBlock(bid int) {
	// The erase clears accumulated disturb whether or not migration
	// proceeds; a skipped migration (dead die, no free block) simply
	// re-arms the counter.
	b := s.ftl.blocks.at(bid)
	b.reads = 0
	addr := s.cfg.Geometry.BlockAddr(bid)
	if s.ftl.blockRetired(addr) {
		return
	}
	dieIdx := s.cfg.Geometry.DieID(addr)
	if s.inj.DieDown(dieIdx) {
		return
	}
	var work GCWork
	if addr.Block < s.ftl.WriteBase() {
		// Pre-fill block: rewrite in place, restarting its retention
		// clock from now.
		work = GCWork{PagesRelocated: s.cfg.Geometry.PagesPerBlock, Erases: 1}
		b.refreshedAt = s.eng.Now()
		b.noteErase()
		b.reclaimErases++
	} else {
		w, err := s.ftl.ReclaimBlock(addr)
		if err != nil {
			s.failRun(err)
			return
		}
		if w.Erases == 0 {
			return
		}
		work = w
	}
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
		s.ftl.blocks.clearReads(b)
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
	n := s.cfg.Geometry.TotalBlocks()
	c := BlockCounters{
		Reads:         make([]int64, n),
		Senses:        make([]int64, n),
		Erases:        make([]int64, n),
		ReclaimErases: make([]int64, n),
	}
	for i := 0; i < n; i++ {
		b := s.ftl.blocks.peek(i)
		if b == nil {
			continue
		}
		c.Reads[i], c.Senses[i] = b.reads, b.senses
		c.Erases[i], c.ReclaimErases[i] = int64(b.erases), int64(b.reclaimErases)
	}
	return c
}

// SeedBlockState loads residual per-block disturb (reads) and wear
// (erases) into a freshly built device, before Run. Either slice may
// be nil to leave that counter at zero. A zero entry of a block never
// written makes no record.
func (s *SSD) SeedBlockState(reads, erases []int64) error {
	n := s.cfg.Geometry.TotalBlocks()
	if reads != nil {
		if len(reads) != n {
			return fmt.Errorf("ssd: SeedBlockState reads length %d, want %d", len(reads), n)
		}
		for i, r := range reads {
			if r != 0 || s.ftl.blocks.peek(i) != nil {
				s.ftl.blocks.at(i).reads = r
			}
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
			if e != 0 || s.ftl.blocks.peek(i) != nil {
				s.ftl.seedErases(i, int32(e))
			}
		}
	}
	return nil
}

// timedOut draws one page decode's injected LDPC timeout and reports
// whether it fails a decode that would pass (fails false); such a
// decode is billed as a full failing one and the page enters the
// scheme's retry ladder. The draw happens for every decode, failing or
// not, so the injector's draw order does not depend on the outcome.
func (s *SSD) timedOut(fails bool) bool {
	if s.inj.DecodeTimeout() {
		s.m.Faults.DecodeTimeouts++
		return !fails
	}
	return false
}

// retireBlock retires the block behind a retry-exhausted page when
// the block is genuinely grown bad (every read of it is hopeless), so
// the allocator stops handing it out. Natural per-page exhaustion at
// high wear does not retire: the block's other pages are still good.
func (s *SSD) retireBlock(p *pageView) {
	if !s.inj.BlockStuck(p.blockID) || s.ftl.blocks.retired(p.blockID) {
		return
	}
	s.m.Faults.GrownBadBlocks++
	s.ftl.RetireBlock(s.cfg.Geometry.BlockAddr(p.blockID))
}

// hostTransfer moves pages across the host link, then fires next.
func (s *SSD) hostTransfer(pages int, next sim.Handler) {
	if s.cfg.Timing.THostPage == 0 {
		next.Fire()
		return
	}
	s.host.transfer(sim.Time(pages)*s.cfg.Timing.THostPage, next)
}

// decodeLatency sums per-page tECC for the given iteration counts.
func (s *SSD) decodeLatency(iters []int) sim.Time {
	var t sim.Time
	for _, it := range iters {
		t += s.dec.DecodeLatency(it)
	}
	return t
}
