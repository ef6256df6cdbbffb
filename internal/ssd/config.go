// Package ssd is a discrete-event simulator of a modern multi-channel
// NVMe SSD, built to evaluate read-retry schemes: it models flash
// dies, shared channels with dedicated channel-level ECC engines and
// bounded raw-data buffers, a page-mapping FTL with garbage
// collection, and a closed-loop host. It is the Go counterpart of the
// extended MQSim-E the RiF paper uses (§VI-A).
package ssd

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/faults"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Scheme selects the read-retry handling of the simulated SSD (§VI-A).
type Scheme int

const (
	// Zero is the hypothetical SSD whose decodes always succeed
	// (SSD_zero): the performance upper bound.
	Zero Scheme = iota
	// One is an SSD with an ideal off-chip retry: one retry loop
	// (NRR = 1) recovers any failed page (SSD_one).
	One
	// Sentinel is the Sentinel baseline: off-chip retry that may need
	// an extra off-chip read of sentinel cells before the re-read.
	Sentinel
	// SWR is Swift-Read: on decode failure the chip runs a two-sense
	// Swift-Read command, then the page is re-transferred.
	SWR
	// SWRPlus is SWR with proactive VREF tracking, which lowers the
	// first-read RBER and hence the retry frequency.
	SWRPlus
	// RPOnly places the read-retry predictor at the controller
	// (RPSSD): doomed decodes are cut short after tPRED, but
	// uncorrectable pages still cross the channel.
	RPOnly
	// RiF is the full Retry-in-Flash design: on-die prediction (RP)
	// plus in-die Swift-Read re-read (RVS); uncorrectable pages never
	// cross the channel except on misprediction.
	RiF
)

// String names the scheme as the paper does.
func (s Scheme) String() string {
	switch s {
	case Zero:
		return "SSDzero"
	case One:
		return "SSDone"
	case Sentinel:
		return "SENC"
	case SWR:
		return "SWR"
	case SWRPlus:
		return "SWR+"
	case RPOnly:
		return "RPSSD"
	case RiF:
		return "RiFSSD"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// AllSchemes lists every scheme in the paper's comparison order.
func AllSchemes() []Scheme {
	return []Scheme{Zero, One, Sentinel, SWR, SWRPlus, RPOnly, RiF}
}

// SchemeByName resolves a scheme from its paper name (as printed by
// String), case-insensitively.
func SchemeByName(name string) (Scheme, error) {
	for _, s := range AllSchemes() {
		if strings.EqualFold(s.String(), name) {
			return s, nil
		}
	}
	var names []string
	for _, s := range AllSchemes() {
		names = append(names, s.String())
	}
	return 0, fmt.Errorf("ssd: unknown scheme %q (want one of %s)", name, strings.Join(names, ", "))
}

// Timing holds the latency parameters of Table I.
type Timing struct {
	TR        sim.Time // page sense
	TProg     sim.Time // page program
	TErase    sim.Time // block erase
	TDMAPage  sim.Time // channel transfer of one 16-KiB page
	TPred     sim.Time // RP prediction of one page (4-KiB chunk checked)
	THostPage sim.Time // host-interface transfer of one 16-KiB page
}

// PaperTiming returns Table I: tR=40us, tPROG=400us, tBERS=3.5ms,
// tDMA ~13us/page (1.2 GB/s channel), tPRED=2.5us, and a PCIe 4.0 x4
// host link (8 GB/s -> 2us/page).
func PaperTiming() Timing {
	return Timing{
		TR:        40 * sim.Microsecond,
		TProg:     400 * sim.Microsecond,
		TErase:    3500 * sim.Microsecond,
		TDMAPage:  sim.Time(13.25 * float64(sim.Microsecond)), // 16 KiB / 1.2 GB/s
		TPred:     sim.Time(2.5 * float64(sim.Microsecond)),
		THostPage: 2 * sim.Microsecond, // 16 KiB / 8 GB/s
	}
}

// Config assembles a simulated SSD.
type Config struct {
	Geometry nand.Geometry
	Timing   Timing
	Scheme   Scheme

	// PECycles is the array's wear state (the paper evaluates 0K, 1K
	// and 2K).
	PECycles int

	// Seed drives every random stream of the run.
	Seed uint64

	// QueueDepth is the closed-loop host's outstanding request count.
	QueueDepth int

	// ECCBufferSlots is the channel ECC engine's raw-data capacity in
	// die-command units, including the one being decoded. Two slots
	// reproduce the paper's Fig. 7 back-pressure (one decoding + one
	// landed).
	ECCBufferSlots int

	// SentinelExtraReadProb is the chance a Sentinel retry needs an
	// extra off-chip read because the page type's VREF set differs
	// from the sentinel read's (2 of 3 TLC page types in the paper's
	// description).
	SentinelExtraReadProb float64

	// MaxRetryRounds bounds controller-driven retry loops. A page
	// still failing after the last round is reported uncorrectable:
	// it is counted in Metrics and the request completes with
	// Completion.MediaError set instead of stalling or panicking.
	MaxRetryRounds int

	// ReadReclaimThreshold triggers the read-reclaim background job
	// when a block's sense count since its last erase reaches it: the
	// block's valid pages migrate elsewhere (competing with GC and
	// host traffic for die time) and the erase clears the disturb
	// counter, exactly like a GC-victim erase. Zero disables reclaim
	// (disturb then accumulates unboundedly, the pre-reclaim model).
	ReadReclaimThreshold int64

	// Faults configures deterministic fault injection (transient
	// sense failures, stuck blocks, die dropout, channel corruption,
	// forced RP misprediction, LDPC decode timeout). The zero value —
	// the default for every paper figure — injects nothing and leaves
	// all random streams untouched.
	Faults faults.Config

	// GCFreeBlockLow triggers garbage collection in a plane when its
	// free block count falls to this threshold.
	GCFreeBlockLow int

	// WriteCachePages sizes the controller's DRAM write buffer in
	// 16-KiB pages. Writes complete to the host once buffered; the
	// flash program happens in the background (as in MQSim-E). It must
	// be at least one page.
	WriteCachePages int

	// PredictionFloor overrides the RP accuracy model's asymptotic
	// accuracy (0 keeps the calibrated default). Used by the
	// chunk-size ablation: smaller chunks predict faster but noisier.
	PredictionFloor float64

	// RiFSecondCheck enables the footnote-4 extension: after the
	// in-die re-read, RP checks the second sense too, catching pages
	// whose adjusted-VREF read is still uncorrectable before they
	// cross the channel (at the cost of another tPRED + tR).
	RiFSecondCheck bool

	// DiePolicy selects read/program scheduling on each die. The
	// default DieFIFO matches the paper-calibrated results;
	// DieReadPriority and DieSuspension are modern-controller
	// extensions.
	DiePolicy DiePolicy

	// ResumePenalty is the extra latency a suspended program pays on
	// resume (DieSuspension only).
	ResumePenalty sim.Time

	// Obs, when non-nil, receives the run's metrics: per-channel
	// usage and queue high-waters, ECC decode latency and buffer
	// occupancy, the RP confusion matrix, GC and write-cache
	// activity, and sim-kernel counters. Nil (the default) disables
	// collection at zero hot-path cost.
	Obs *obs.Registry `json:"-"`

	// Trace, when non-nil, receives every die/channel/ECC occupancy
	// as a sim-time span (bounded ring buffer); export it with
	// Tracer.WriteChromeTrace. Nil disables tracing.
	Trace *obs.Tracer `json:"-"`

	// NANDParams configures the reliability physics; zero value means
	// nand.DefaultModelParams.
	NANDParams nand.ModelParams
}

// DefaultConfig returns the paper's evaluated SSD (Table I) with the
// given scheme and wear state.
func DefaultConfig(scheme Scheme, peCycles int) Config {
	return Config{
		Geometry:              nand.PaperGeometry(),
		Timing:                PaperTiming(),
		Scheme:                scheme,
		PECycles:              peCycles,
		Seed:                  1,
		QueueDepth:            256,
		ECCBufferSlots:        2,
		SentinelExtraReadProb: 2.0 / 3.0,
		MaxRetryRounds:        3,
		ReadReclaimThreshold:  100_000, // MQSim's default read-reclaim limit
		GCFreeBlockLow:        2,
		WriteCachePages:       4096, // 64 MiB of controller DRAM
		ResumePenalty:         20 * sim.Microsecond,
		NANDParams:            nand.DefaultModelParams(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	switch {
	case c.Scheme < Zero || c.Scheme > RiF:
		return fmt.Errorf("ssd: unknown scheme %d", int(c.Scheme))
	case c.Timing.TR <= 0 || c.Timing.TProg <= 0 || c.Timing.TErase <= 0:
		return fmt.Errorf("ssd: non-positive NAND timing %+v", c.Timing)
	case c.Timing.TDMAPage <= 0:
		return fmt.Errorf("ssd: non-positive DMA time")
	case c.PECycles < 0:
		return fmt.Errorf("ssd: negative P/E cycles %d", c.PECycles)
	case c.QueueDepth <= 0:
		return fmt.Errorf("ssd: queue depth %d", c.QueueDepth)
	case c.ECCBufferSlots < 1:
		return fmt.Errorf("ssd: ECC buffer slots %d", c.ECCBufferSlots)
	case c.SentinelExtraReadProb < 0 || c.SentinelExtraReadProb > 1:
		return fmt.Errorf("ssd: sentinel extra-read prob %v", c.SentinelExtraReadProb)
	case c.MaxRetryRounds < 1:
		return fmt.Errorf("ssd: max retry rounds %d", c.MaxRetryRounds)
	case c.WriteCachePages < 1:
		return fmt.Errorf("ssd: write cache pages %d", c.WriteCachePages)
	case c.PredictionFloor < 0 || c.PredictionFloor > 1:
		return fmt.Errorf("ssd: prediction floor %v", c.PredictionFloor)
	case c.DiePolicy < DieFIFO || c.DiePolicy > DieSuspension:
		return fmt.Errorf("ssd: die policy %d", c.DiePolicy)
	case c.ResumePenalty < 0:
		return fmt.Errorf("ssd: resume penalty %v", c.ResumePenalty)
	case c.ReadReclaimThreshold < 0:
		return fmt.Errorf("ssd: read-reclaim threshold %d is negative; use 0 to disable reclaim", c.ReadReclaimThreshold)
	}
	if !pagesFitUint32(c.Geometry) {
		return fmt.Errorf("ssd: geometry %+v has more pages than the FTL's uint32 page numbers hold", c.Geometry)
	}
	return nil
}

// pagesFitUint32 reports whether a valid geometry's page count fits
// the uint32 physical page numbers of the FTL's forward map. It checks
// each step of the product, so no geometry can overflow it.
func pagesFitUint32(g nand.Geometry) bool {
	n := uint64(1)
	for _, d := range [...]int{g.Channels, g.DiesPerChan, g.PlanesPerDie, g.BlocksPerPlane, g.PagesPerBlock} {
		if uint64(d) > math.MaxUint32/n {
			return false
		}
		n *= uint64(d)
	}
	return true
}
