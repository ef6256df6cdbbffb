package rif

import (
	"repro/internal/core"
	"repro/internal/ldpc"
)

// This file re-exports the experiment harnesses that regenerate the
// paper's figures, so downstream users can reproduce or extend the
// studies through the public API.

// CodeParams sizes the QC-LDPC code-level studies (Figs. 3/10/11/14).
type CodeParams = core.CodeParams

// DefaultCodeParams returns the fast-sweep code configuration.
func DefaultCodeParams() CodeParams { return core.DefaultCodeParams() }

// CapabilityPoint is one point of the LDPC capability curve (Fig. 3).
type CapabilityPoint = core.CapabilityPoint

// LDPCCapability measures decoding failure probability and iteration
// counts across an RBER sweep (Fig. 3). Pass nil for the default
// sweep.
func LDPCCapability(p CodeParams, rbers []float64) []CapabilityPoint {
	return core.Fig3(p, rbers)
}

// CorrelationPoint is one point of the syndrome-weight correlation
// (Fig. 10).
type CorrelationPoint = core.CorrelationPoint

// SyndromeCorrelation measures the RBER-to-syndrome-weight relation
// and the calibrated thresholds rhoS (Fig. 10).
func SyndromeCorrelation(p CodeParams, rbers []float64) (points []CorrelationPoint, rhoSFull, rhoSPruned int) {
	return core.Fig10(p, rbers)
}

// AccuracyPoint is one point of an RP accuracy sweep (Figs. 11/14).
type AccuracyPoint = core.AccuracyPoint

// RPAccuracy measures the read-retry predictor's agreement with the
// real LDPC decoder. approximate=true applies the chunking and
// syndrome-pruning hardware heuristics (Fig. 14 vs Fig. 11).
func RPAccuracy(p CodeParams, rbers []float64, approximate bool) []AccuracyPoint {
	return core.RPAccuracy(p, rbers, approximate)
}

// MeanAccuracyAbove averages measured accuracy over RBER points above
// the ECC capability (the paper's 99.1%/98.7% headlines).
func MeanAccuracyAbove(points []AccuracyPoint, capability float64) float64 {
	return core.MeanAccuracyAbove(points, capability)
}

// SoftGainPoint pairs hard- and soft-decoding outcomes at one RBER.
type SoftGainPoint = ldpc.SoftGainPoint

// SoftGainStudy measures the capability extension soft-decision
// decoding buys over the hard capability (an extension beyond the
// paper; pass nil for the default sweep). It returns the paired
// failure curves and the estimated soft capability.
func SoftGainStudy(p CodeParams, rbers []float64) ([]SoftGainPoint, float64) {
	return core.SoftGainStudy(p, rbers)
}

// RetentionCell is one cell of the retention-until-retry distribution
// (Fig. 4).
type RetentionCell = core.RetentionCell

// RetentionStudy regenerates Fig. 4 for the given P/E counts (nil for
// the paper's set).
func RetentionStudy(blocks int, peCycles []int) []RetentionCell {
	p := core.DefaultFig4Params()
	if blocks > 0 {
		p.Blocks = blocks
	}
	return core.Fig4(p, peCycles)
}

// SimilarityPoint is one cell of the chunk RBER similarity study
// (Fig. 12).
type SimilarityPoint = core.SimilarityPoint

// ChunkSimilarity regenerates the Fig. 12 intra-page chunk RBER
// similarity study over the given page sample size.
func ChunkSimilarity(seed uint64, pages int) []SimilarityPoint {
	return core.Fig12(seed, pages)
}

// MaxChunkSpread reports the worst (RBERmax-RBERmin)/RBERmin for a
// chunk size across all conditions of a Fig. 12 result.
func MaxChunkSpread(points []SimilarityPoint, chunkKiB int) float64 {
	return core.MaxSpreadFor(points, chunkKiB)
}

// TimelineResult is one Fig. 7/8 execution-timeline measurement.
type TimelineResult = core.TimelineResult

// Timelines reproduces the 256-KiB-read timelines of Figs. 7 and 8.
// The three per-scheme runs share a private scheduler of workers (0
// means one per CPU, 1 runs them sequentially in order); results are
// identical either way.
func Timelines(workers int) ([]TimelineResult, error) {
	return core.Timelines(core.RunParams{Workers: workers})
}

// Overhead is the §VI-C hardware/energy study result.
type Overhead = core.Overhead

// OverheadStudy evaluates the RP module's energy accounting on a
// worn, read-heavy run.
func OverheadStudy(p RunParams) (*Overhead, error) { return core.OverheadStudy(p) }

// UsageCell is one channel-usage breakdown row (Fig. 18).
type UsageCell = core.UsageCell

// ChannelUsageStudy measures the Fig. 18 channel usage breakdown for
// the given schemes.
func ChannelUsageStudy(p RunParams, schemes []Scheme) ([]UsageCell, error) {
	return core.Fig18(p, schemes)
}

// LatencyCurve is one read-latency distribution (Fig. 19).
type LatencyCurve = core.LatencyCurve

// LatencyStudy measures Fig. 19's read-latency CDFs.
func LatencyStudy(p RunParams, schemes []Scheme) ([]LatencyCurve, error) {
	return core.Fig19(p, schemes)
}

// PaperPECycles are the paper's three evaluated wear states.
func PaperPECycles() []int { return append([]int(nil), core.PaperPECycles...) }

// ChunkAblationPoint is one RP chunk-size configuration result.
type ChunkAblationPoint = core.ChunkAblationPoint

// AblateChunkSize sweeps the RP chunk size (§V-A1's 4-KiB choice):
// smaller chunks predict faster but mispredict more.
func AblateChunkSize(p RunParams) ([]ChunkAblationPoint, error) {
	return core.AblateChunkSize(p)
}

// BufferAblationPoint is one ECC buffer depth result.
type BufferAblationPoint = core.BufferAblationPoint

// AblateECCBuffer sweeps the channel ECC raw-buffer depth for an
// off-chip scheme, quantifying how much ECCWAIT deeper buffers
// recover.
func AblateECCBuffer(p RunParams, scheme Scheme) ([]BufferAblationPoint, error) {
	return core.AblateECCBuffer(p, scheme)
}

// AccuracyAblationPoint is one prediction-floor result.
type AccuracyAblationPoint = core.AccuracyAblationPoint

// AblateAccuracy sweeps the RP accuracy floor, quantifying the
// prediction quality RiF's benefit requires.
func AblateAccuracy(p RunParams) ([]AccuracyAblationPoint, error) {
	return core.AblateAccuracy(p)
}

// SecondCheckResult compares RiF with and without the footnote-4
// second prediction pass.
type SecondCheckResult = core.SecondCheckResult

// AblateSecondCheck measures the footnote-4 extension at very heavy
// wear.
func AblateSecondCheck(p RunParams) (*SecondCheckResult, error) {
	return core.AblateSecondCheck(p)
}

// RefreshPoint is one refresh-horizon configuration result.
type RefreshPoint = core.RefreshPoint

// AblateRefreshHorizon sweeps the background refresh period
// (footnote 3): retry suppression versus refresh write tax.
func AblateRefreshHorizon(p RunParams, scheme Scheme, peCycles int) ([]RefreshPoint, error) {
	return core.AblateRefreshHorizon(p, scheme, peCycles)
}

// MultiTenantResult compares tenant isolation across schemes.
type MultiTenantResult = core.MultiTenantResult

// MultiTenantStudy runs a read-heavy and a write-heavy tenant on
// shared hardware through two NVMe-style host queues per scheme.
func MultiTenantStudy(p RunParams, schemes []Scheme, peCycles int) ([]MultiTenantResult, error) {
	return core.MultiTenantStudy(p, schemes, peCycles)
}
