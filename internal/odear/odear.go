// Package odear implements the read-retry predictor (RP) of the RiF
// paper's On-Die EArly-Retry engine: it estimates page correctability
// from an approximate syndrome weight. The engine's read-voltage
// selector (RVS), which re-reads a flagged page at Swift-Read's
// near-optimal voltages, is modeled where the read happens, as a
// nand.OptimalVref sense (internal/ssd, internal/chip).
//
// Two layers are provided, mirroring the paper's methodology:
//
//   - A functional layer (RP) that operates on real codewords and the
//     real QC-LDPC machinery — used to regenerate Figs. 10, 11 and 14
//     and to validate the predictor.
//   - A probability layer (AccuracyModel) used inside the SSD
//     simulator, exactly as the paper's extended MQSim-E "simulates the
//     RP module of a RiF-enabled flash chip [with] a probability-based
//     model using the RP prediction accuracy function".
package odear

import (
	"math"

	"repro/internal/ldpc"
)

// Hardware cost constants from the paper's §VI-C synthesis results
// (130 nm, 100 MHz) and energy accounting.
const (
	// AreaMM2 is the RP module's synthesized area.
	AreaMM2 = 0.012
	// PowerMW is the RP module's power draw.
	PowerMW = 1.28
	// PredictionEnergyNJ is the energy of one read-retry prediction.
	PredictionEnergyNJ = 3.2
	// AvoidedTransferEnergyNJ is the energy saved by not moving one
	// unrecoverable page across the channel.
	AvoidedTransferEnergyNJ = 907
	// TPredMicros is the prediction latency for a 4-KiB chunk (§V-B).
	TPredMicros = 2.5
)

// RP is the read-retry predictor. It computes a syndrome weight of the
// sensed data and compares it to the correctability threshold ρs.
type RP struct {
	code *ldpc.Code
	// RhoS is the correctability threshold: weights above it predict
	// an off-chip decode failure.
	RhoS int
	// Approximate selects the hardware heuristics of §V-A: prune to
	// the first block row of syndromes and check a single chunk.
	Approximate bool
}

// NewRP builds a predictor for the code with the threshold calibrated
// for the given ECC correction capability (RBER). approximate selects
// the §V-A pruned/chunked form the paper ships (Fig. 14); the full
// form corresponds to Fig. 11.
func NewRP(code *ldpc.Code, capability float64, approximate bool) *RP {
	return &RP{
		code:        code,
		RhoS:        RhoS(code, capability, approximate),
		Approximate: approximate,
	}
}

// RhoS computes the correctability threshold for a code: the expected
// syndrome weight of a page whose RBER equals the ECC capability
// (§IV-B: "we set ρs to the corresponding syndrome weight for the
// RBER value of 0.0085"). For a parity check of degree d on a BSC
// with crossover p, P(syndrome bit = 1) = (1-(1-2p)^d)/2.
func RhoS(code *ldpc.Code, capability float64, approximate bool) int {
	expected := 0.0
	rows := code.R
	if approximate {
		rows = 1 // syndrome pruning: only the first block row
	}
	for i := 0; i < rows; i++ {
		deg := 0
		for j := 0; j < code.C; j++ {
			if code.Shifts[i][j] != ldpc.ZeroBlock {
				deg++
			}
		}
		pOne := (1 - math.Pow(1-2*capability, float64(deg))) / 2
		expected += float64(code.T) * pOne
	}
	return int(expected + 0.5)
}

// Predict reports whether RP expects an off-chip LDPC decode of the
// sensed codeword to fail (true = retry needed).
func (rp *RP) Predict(sensed ldpc.Bits) bool {
	return rp.Weight(sensed) > rp.RhoS
}

// PredictRearranged is Predict for data stored in the §V-B rearranged
// layout — the on-die datapath form (XOR of segments, Fig. 16).
// It only applies to the approximate predictor.
func (rp *RP) PredictRearranged(sensed ldpc.Bits) bool {
	return rp.code.RearrangedPrunedWeight(sensed) > rp.RhoS
}

// Weight computes the syndrome weight RP thresholds against: the full
// weight, or the first-block-row weight when Approximate.
func (rp *RP) Weight(sensed ldpc.Bits) int {
	if rp.Approximate {
		return rp.code.FirstRowSyndromeWeight(sensed)
	}
	return rp.code.SyndromeWeight(sensed)
}
