package nand

import (
	"math"
)

// ECCCapabilityRBER is the correction capability of the 4-KiB QC-LDPC
// engine assumed throughout the paper: pages whose RBER exceeds this
// cannot be decoded and require a read-retry (Fig. 3).
const ECCCapabilityRBER = 0.0085

// VrefMode selects which read-reference voltages a sense operation
// uses, which determines the observed RBER.
type VrefMode int

const (
	// DefaultVref uses the factory voltages; retention-induced Vth
	// drift is fully exposed.
	DefaultVref VrefMode = iota
	// OptimalVref uses per-threshold near-optimal voltages (the result
	// of a successful Swift-Read estimate or an ideal retry).
	OptimalVref
	// TrackedVref models SWR+'s proactive VREF tracking: the voltages
	// lag the true optimum, removing a large fraction of the drift.
	TrackedVref
)

// ModelParams are the tunable constants of the Vth physics model.
// DefaultModelParams is calibrated so the ECC-capability crossing
// reproduces the paper's Fig. 4 retention frontier.
type ModelParams struct {
	// StateGap is the fresh spacing between adjacent Vth state means
	// (arbitrary millivolt-like units).
	StateGap float64
	// SigmaFresh is the fresh per-state Vth standard deviation.
	SigmaFresh float64
	// RetentionShift scales the charge-loss downshift of programmed
	// states: state i shifts by
	// RetentionShift*(0.5+0.5*i/7)*log(1+days)*wear — every programmed
	// state loses charge, higher states faster.
	RetentionShift float64
	// RetentionWiden scales distribution widening with retention.
	RetentionWiden float64
	// PEWiden scales permanent widening with P/E cycling (per 1K P/E).
	PEWiden float64
	// PEShiftBoost scales how much P/E wear accelerates retention
	// loss (per 1K P/E). The same wear multiplier accelerates read
	// disturb (the pe^p factor of the MQSim-JW power-law RBER model).
	PEShiftBoost float64
	// DisturbShift scales the read-disturb upshift of the lower Vth
	// states: after N block reads the erase state rises by
	// DisturbShift * N^DisturbExp * wear model-voltage units, tapering
	// linearly to zero at the top state (the weak-programming stress
	// of repeated senses affects erased cells most).
	DisturbShift float64
	// DisturbWiden scales per-state distribution widening with the
	// same power-law disturb level.
	DisturbWiden float64
	// DisturbExp is the power-law exponent on the block's accumulated
	// read count (the reads^q term of the MQSim-JW model; q < 1, so
	// per-read damage saturates as the count grows).
	DisturbExp float64
	// BlockVarSigma is the lognormal sigma of per-block process
	// variation applied to the retention shift rate.
	BlockVarSigma float64
	// ChunkVar4K is the relative RBER std-dev among 4-KiB chunks of a
	// page; smaller chunks scale by sqrt(4K/size) (Fig. 12).
	ChunkVar4K float64
	// TrackedResidual is the fraction of VREF drift left uncorrected
	// in TrackedVref mode (SWR+).
	TrackedResidual float64
}

// DefaultModelParams returns the calibrated constants.
func DefaultModelParams() ModelParams {
	return ModelParams{
		StateGap:       600,
		SigmaFresh:     80,
		RetentionShift: 47,
		RetentionWiden: 0.055,
		PEWiden:        0.10,
		PEShiftBoost:   0.20,
		// Disturb coefficients are calibrated so the default-VREF RBER
		// increase tracks the pre-power-law linear model (2e-9 per
		// read) within ~1.5x over 10K..1M block reads at 1K P/E — the
		// small-reads limit — while staying a genuine distribution
		// change that VREF re-optimization only partially removes.
		DisturbShift:    8e-5,
		DisturbWiden:    1e-6,
		DisturbExp:      0.8,
		BlockVarSigma:   0.10,
		ChunkVar4K:      0.0085,
		TrackedResidual: 0.65,
	}
}

// Model evaluates page RBER as a function of operating condition. It
// is deterministic: all per-block and per-page variation derives from
// Seed, so repeated queries agree and experiments are reproducible.
type Model struct {
	p    ModelParams
	seed uint64
}

// NewModel builds a reliability model with the given parameters.
func NewModel(p ModelParams, seed uint64) *Model {
	return &Model{p: p, seed: seed}
}

// NewDefaultModel builds a model with DefaultModelParams.
func NewDefaultModel(seed uint64) *Model {
	return NewModel(DefaultModelParams(), seed)
}

// Params returns the model constants.
func (m *Model) Params() ModelParams { return m.p }

// thresholdSets lists the VREF indices (1..7) each page type needs.
var thresholdSets = [...][]int{
	LSB: {1, 5},
	CSB: {2, 4, 6},
	MSB: {3, 7},
}

// thresholdsOf lists the VREF indices (1..7) a page type needs.
func thresholdsOf(pt PageType) []int {
	if pt == LSB || pt == CSB {
		return thresholdSets[pt]
	}
	return thresholdSets[MSB]
}

// qFunc is the Gaussian upper-tail probability Q(x).
func qFunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// hash01 maps a key to a deterministic uniform (0,1) value.
func hash01(key uint64) float64 {
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return (float64(z>>11) + 0.5) / (1 << 53)
}

// hashNormal maps a key to a deterministic standard-normal value via
// the inverse-CDF of a pair of uniforms (Box-Muller on fixed draws).
func hashNormal(key uint64) float64 {
	u1 := hash01(key)
	u2 := hash01(key ^ 0xabcdef1234567890)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// BlockVariation reports the process-variation multiplier on the
// retention shift rate for a block. It is lognormal around 1.
func (m *Model) BlockVariation(blockID int) float64 {
	return math.Exp(m.p.BlockVarSigma * hashNormal(m.seed^uint64(blockID)*0x9e3779b9))
}

// condition captures the derived distribution state for one read.
type condition struct {
	shiftUnit   float64 // retention downshift of the top state (state 7)
	disturbUnit float64 // read-disturb upshift of the erase state (state 0)
	sigma       float64 // common per-state std-dev after widening/wear
}

// conditionAt derives the Vth distribution state of one block read.
// Retention shifts the programmed states down and widens them; read
// disturb — a genuine distribution change, not an additive RBER tax —
// pushes the low states up and widens everything, both growing as a
// power law of the block's accumulated read count (the reads^q term of
// the MQSim-JW RBER model) and accelerated by the same wear multiplier
// that speeds retention loss. Because disturb reshapes the
// distributions, it interacts with VREF choice: a re-optimized read
// voltage recenters on the shifted means but cannot undo the widening
// or the shrunken state gaps, so disturb degrades every VREF mode by a
// different amount.
func (m *Model) conditionAt(blockID, pe int, retentionDays float64, reads int64) condition {
	return m.conditionWith(m.BlockVariation(blockID), pe, retentionDays, reads)
}

// conditionWith is conditionAt for a block whose BlockVariation the
// caller already holds.
func (m *Model) conditionWith(variation float64, pe int, retentionDays float64, reads int64) condition {
	if retentionDays < 0 {
		retentionDays = 0
	}
	wear := 1 + m.p.PEShiftBoost*float64(pe)/1000
	l := math.Log1p(retentionDays) * wear * variation
	c := condition{
		shiftUnit: m.p.RetentionShift * l,
		sigma:     m.p.SigmaFresh * (1 + m.p.RetentionWiden*l + m.p.PEWiden*float64(pe)/1000),
	}
	if reads > 0 {
		dl := math.Pow(float64(reads), m.p.DisturbExp) * wear
		c.disturbUnit = m.p.DisturbShift * dl
		c.sigma *= 1 + m.p.DisturbWiden*dl
	}
	return c
}

// stateMean reports the mean of state i under the condition. All
// programmed states lose charge with retention; higher states lose it
// faster (steeper field across the damaged tunnel oxide), so the
// shift grows from half the unit at the erase state to the full unit
// at the top state. Read disturb works the other way: pass-voltage
// stress weakly programs cells, raising the erase state by the full
// disturb unit and tapering to nothing at the top state — the state
// gaps shrink from both ends.
func (m *Model) stateMean(i int, c condition) float64 {
	return float64(i)*m.p.StateGap - c.shiftUnit*(0.5+0.5*float64(i)/7) + c.disturbUnit*(1-float64(i)/7)
}

// defaultVref is the factory read voltage for threshold j (between
// states j-1 and j of the fresh distributions).
func (m *Model) defaultVref(j int) float64 {
	return (float64(j-1) + 0.5) * m.p.StateGap
}

// optimalVref is the equal-density crossing of the two adjacent
// (shifted) distributions — what Swift-Read estimates.
func (m *Model) optimalVref(j int, c condition) float64 {
	return (m.stateMean(j-1, c) + m.stateMean(j, c)) / 2
}

// trackedVref lags the optimum by TrackedResidual of the drift.
func (m *Model) trackedVref(j int, c condition) float64 {
	opt := m.optimalVref(j, c)
	def := m.defaultVref(j)
	return opt + m.p.TrackedResidual*(def-opt)
}

// vrefAt reports the read voltage for threshold j in the given mode
// under the condition.
func (m *Model) vrefAt(j int, mode VrefMode, c condition) float64 {
	switch mode {
	case OptimalVref:
		return m.optimalVref(j, c)
	case TrackedVref:
		return m.trackedVref(j, c)
	default:
		return m.defaultVref(j)
	}
}

// misread is the one place the per-threshold tail formula lives: the
// probability that a cell is misread across threshold j sensed at
// voltage v. A cell is in a specific state with probability 1/8
// (randomized data); misreads across threshold j come from the two
// adjacent states.
func (m *Model) misread(j int, c condition, v float64) float64 {
	lo := m.stateMean(j-1, c)
	hi := m.stateMean(j, c)
	return (qFunc((v-lo)/c.sigma) + qFunc((hi-v)/c.sigma)) / 8
}

// capRBER saturates a summed error rate at one bit in two.
func capRBER(rber float64) float64 {
	if rber > 0.5 {
		return 0.5
	}
	return rber
}

// rberAcross sums the misread probability across the page type's
// thresholds, sensing threshold j at voltage vref(j): the retry-table
// walk and the Swift-Read re-read place their own voltages.
func (m *Model) rberAcross(pt PageType, c condition, vref func(j int) float64) float64 {
	rber := 0.0
	for _, j := range thresholdsOf(pt) {
		rber += m.misread(j, c, vref(j))
	}
	return capRBER(rber)
}

// rberAt is rberAcross at the voltages of a VREF mode.
func (m *Model) rberAt(pt PageType, c condition, mode VrefMode) float64 {
	rber := 0.0
	for _, j := range thresholdsOf(pt) {
		rber += m.misread(j, c, m.vrefAt(j, mode, c))
	}
	return capRBER(rber)
}

// PageRBER reports the raw bit error rate observed when sensing the
// page with the given VREF mode under the given operating condition.
func (m *Model) PageRBER(blockID int, pt PageType, pe int, retentionDays float64, reads int64, mode VrefMode) float64 {
	return m.rberAt(pt, m.conditionAt(blockID, pe, retentionDays, reads), mode)
}

// PageRBERPair reports the page's RBER under two VREF modes from one
// evaluation of the operating condition; each value is bit-identical
// to the matching PageRBER. variation is the block's BlockVariation,
// which a caller that reads the same block many times can compute
// once.
//
//riflint:hotpath
func (m *Model) PageRBERPair(variation float64, pt PageType, pe int, retentionDays float64, reads int64, a, b VrefMode) (float64, float64) {
	c := m.conditionWith(variation, pe, retentionDays, reads)
	return m.rberAt(pt, c, a), m.rberAt(pt, c, b)
}

// ChunkRBER reports the RBER of chunk chunkIdx (of chunkCount equal
// chunks) of a page whose overall RBER is pageRBER. Intra-page
// variation is small, grows as chunks shrink, and grows with stress
// (Fig. 12 shows the spread widening with retention and P/E); pageKey
// makes the jitter deterministic per page.
func (m *Model) ChunkRBER(pageRBER float64, pageKey uint64, chunkIdx, chunkCount int) float64 {
	if chunkCount <= 1 {
		return pageRBER
	}
	// ChunkVar4K is specified for 4 chunks of a 16-KiB page under
	// full stress; smaller chunks have proportionally noisier RBER,
	// and lightly-stressed pages (low RBER) vary less.
	stress := pageRBER / ECCCapabilityRBER
	if stress > 1 {
		stress = 1
	}
	sigma := m.p.ChunkVar4K * math.Pow(float64(chunkCount)/4, 0.75) * (0.55 + 0.45*stress)
	eps := sigma * hashNormal(m.seed^pageKey^uint64(chunkIdx)*0x517cc1b727220a95^uint64(chunkCount)<<32)
	r := pageRBER * (1 + eps)
	if r < 0 {
		r = 0
	}
	return r
}

// NeedsRetry reports whether a page read at the given condition and
// VREF mode exceeds the ECC correction capability.
func (m *Model) NeedsRetry(blockID int, pt PageType, pe int, retentionDays float64, reads int64, mode VrefMode) bool {
	return m.PageRBER(blockID, pt, pe, retentionDays, reads, mode) > ECCCapabilityRBER
}

// RetentionUntilRetry reports the retention time, in days, at which
// the page's default-VREF RBER first exceeds the ECC correction
// capability (the quantity characterized in Fig. 4). It returns
// maxDays when the page survives the whole horizon.
func (m *Model) RetentionUntilRetry(blockID int, pt PageType, pe int, maxDays float64) float64 {
	if m.PageRBER(blockID, pt, pe, 0, 0, DefaultVref) > ECCCapabilityRBER {
		return 0
	}
	if m.PageRBER(blockID, pt, pe, maxDays, 0, DefaultVref) <= ECCCapabilityRBER {
		return maxDays
	}
	lo, hi := 0.0, maxDays
	for i := 0; i < 48; i++ {
		mid := (lo + hi) / 2
		if m.PageRBER(blockID, pt, pe, mid, 0, DefaultVref) > ECCCapabilityRBER {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
