package ssd

import (
	"fmt"

	"repro/internal/odear"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ChannelUsage breaks a channel's wall-clock time into the categories
// of the paper's Fig. 18.
type ChannelUsage struct {
	// Cor is time spent transferring pages that subsequently decode.
	Cor sim.Time
	// Uncor is time spent transferring pages that fail decoding (or
	// auxiliary transfers such as sentinel-cell reads).
	Uncor sim.Time
	// Write is time spent transferring write data to the dies.
	Write sim.Time
	// ECCWait is time the channel sat idle with transfers pending
	// because the channel-level ECC buffer was full.
	ECCWait sim.Time
	// Total is the observation window.
	Total sim.Time
}

// Idle is the remaining (truly idle) time.
func (u ChannelUsage) Idle() sim.Time {
	idle := u.Total - u.Cor - u.Uncor - u.Write - u.ECCWait
	if idle < 0 {
		idle = 0
	}
	return idle
}

// Fractions reports the breakdown normalized to the window, in the
// order IDLE, COR, UNCOR, ECCWAIT (write transfer time is folded into
// COR, as it is useful data movement).
func (u ChannelUsage) Fractions() (idle, cor, uncor, eccWait float64) {
	if u.Total == 0 {
		return 1, 0, 0, 0
	}
	t := float64(u.Total)
	return float64(u.Idle()) / t,
		float64(u.Cor+u.Write) / t,
		float64(u.Uncor) / t,
		float64(u.ECCWait) / t
}

// add accumulates another channel's usage.
func (u *ChannelUsage) add(v ChannelUsage) {
	u.Cor += v.Cor
	u.Uncor += v.Uncor
	u.Write += v.Write
	u.ECCWait += v.ECCWait
	u.Total += v.Total
}

// FaultMetrics aggregates the injected-fault activity of one run and
// the degradation machinery it exercised. All zero when fault
// injection is disabled.
type FaultMetrics struct {
	// TransientSenseFaults counts injected sense glitches (each one
	// cost a full extra sense on the die).
	TransientSenseFaults int64
	// StuckPageReads counts page reads that hit a grown-bad block.
	StuckPageReads int64
	// GrownBadBlocks counts distinct blocks the FTL retired after
	// their reads proved uncorrectable.
	GrownBadBlocks int64
	// DieDropoutReads counts page reads aimed at a dead die (each
	// fails after a probe sense and surfaces as a media error).
	DieDropoutReads int64
	// DieFailovers counts writes the FTL re-homed from a dead die to
	// the next live one.
	DieFailovers int64
	// ChannelCorruptions counts read transfers corrupted in flight
	// and re-issued from the die's page buffer.
	ChannelCorruptions int64
	// ForcedMispredictions counts RP predictions inverted by
	// injection (on top of the accuracy model's own errors).
	ForcedMispredictions int64
	// DecodeTimeouts counts LDPC decodes that timed out and pushed
	// their page into the retry ladder.
	DecodeTimeouts int64
	// DroppedWrites counts host writes abandoned because the FTL
	// could not place them (out of space or every die down); the run
	// carries the first such error in its result.
	DroppedWrites int64
}

// Total sums every injected-fault event (not the derived failover /
// retirement / drop counters).
func (f FaultMetrics) Total() int64 {
	return f.TransientSenseFaults + f.StuckPageReads + f.DieDropoutReads +
		f.ChannelCorruptions + f.ForcedMispredictions + f.DecodeTimeouts
}

// Metrics is the result of one simulation run.
type Metrics struct {
	Scheme   Scheme
	PECycles int

	// Completed I/O volume.
	RequestsCompleted int
	BytesRead         int64
	BytesWritten      int64

	// Makespan is the virtual time to complete the run.
	Makespan sim.Time

	// ReadLatencies is the distribution of per-request read latencies
	// in microseconds (Fig. 19).
	ReadLatencies stats.Sketch

	// Channels is the aggregated channel usage (Fig. 18).
	Channels ChannelUsage

	// Retry behaviour.
	PageReads          int64 // first-read pages sensed for the host
	PagesRetried       int64 // pages that needed at least one retry
	RetryRounds        int64 // total retry rounds executed
	SentinelExtraReads int64
	UnrecoveredPages   int64 // pages still failing after MaxRetryRounds

	// Prediction behaviour (RiF and RPSSD).
	Predictions      int64
	Mispredictions   int64
	AvoidedTransfers int64 // uncorrectable pages kept on-die by RiF

	// Confusion breaks Predictions down into the four outcomes
	// (positive = RP predicts the decode will fail), reproducing the
	// paper's Fig. 14 accuracy split.
	Confusion odear.Confusion

	// RVSRereads counts pages re-sensed inside the die by RVS (RiF
	// only): in-die recoveries that never consumed channel bandwidth.
	RVSRereads int64

	// GC activity.
	GCRuns         int64
	PagesRelocated int64

	// Read-reclaim activity: blocks erased because their sense count
	// crossed Config.ReadReclaimThreshold, and the valid pages those
	// erases migrated (or refreshed in place, for pre-fill blocks).
	ReadReclaims         int64
	ReclaimPagesMigrated int64

	// Suspensions counts program/erase preemptions by reads
	// (DieSuspension policy only).
	Suspensions int64

	// PeakInFlight is the high-water count of requests in flight on
	// the host port, whichever host submitted them.
	PeakInFlight int

	// HeldArrivals counts open-loop arrivals that found replay's
	// bounded ring full and waited for a completion before admission:
	// the saturation signal of an intensity sweep. replay.Run writes
	// it; closed-loop hosts leave it zero.
	HeldArrivals int64

	// MediaErrorRequests counts host read requests that completed
	// with at least one uncorrectable page: the graceful-degradation
	// outcome (Completion.MediaError set) instead of a stall or panic.
	MediaErrorRequests int64

	// Faults is the injected-fault accounting.
	Faults FaultMetrics
}

// MediaErrorRate reports the fraction of completed requests that
// returned a media error.
func (m *Metrics) MediaErrorRate() float64 {
	if m.RequestsCompleted == 0 {
		return 0
	}
	return float64(m.MediaErrorRequests) / float64(m.RequestsCompleted)
}

// Bandwidth reports the achieved I/O bandwidth in MB/s (decimal,
// matching the paper's axes).
func (m *Metrics) Bandwidth() float64 {
	if m.Makespan <= 0 {
		return 0
	}
	return float64(m.BytesRead+m.BytesWritten) / 1e6 / m.Makespan.Seconds()
}

// RetryRate reports the fraction of host page reads that required a
// retry.
func (m *Metrics) RetryRate() float64 {
	if m.PageReads == 0 {
		return 0
	}
	return float64(m.PagesRetried) / float64(m.PageReads)
}

// PredictionAccuracy reports the realized RP accuracy.
func (m *Metrics) PredictionAccuracy() float64 {
	if m.Predictions == 0 {
		return 1
	}
	return 1 - float64(m.Mispredictions)/float64(m.Predictions)
}

// EnergyDeltaNJ reports the net read-path energy change versus a
// conventional chip (§VI-C): each prediction costs
// odear.PredictionEnergyNJ; each avoided uncorrectable transfer saves
// odear.AvoidedTransferEnergyNJ. Negative values are net savings.
func (m *Metrics) EnergyDeltaNJ() float64 {
	return float64(m.Predictions)*odear.PredictionEnergyNJ -
		float64(m.AvoidedTransfers)*odear.AvoidedTransferEnergyNJ
}

// String summarizes the run for experiment logs.
func (m *Metrics) String() string {
	idle, cor, uncor, wait := m.Channels.Fractions()
	return fmt.Sprintf(
		"%s pe=%d bw=%.0fMB/s reqs=%d retries=%.1f%% ch[idle=%.2f cor=%.2f uncor=%.2f eccwait=%.2f] p99=%.0fus",
		m.Scheme, m.PECycles, m.Bandwidth(), m.RequestsCompleted,
		100*m.RetryRate(), idle, cor, uncor, wait,
		m.ReadLatencies.Percentile(99))
}
