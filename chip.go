package rif

import (
	"repro/internal/chip"
	"repro/internal/ldpc"
)

// This file re-exports the functional chip model: a RiF-enabled flash
// die that stores real bits and runs the real ODEAR machinery, the
// counterpart of the paper's prototype chip.

// ChipConfig assembles a functional RiF-enabled chip.
type ChipConfig = chip.Config

// DefaultChipConfig returns a small ODEAR-enabled chip with the
// paper's 4x36 QC-LDPC block shape.
func DefaultChipConfig() ChipConfig { return chip.DefaultConfig() }

// Chip is a functional flash die: Program stores scrambled, encoded,
// rearranged codewords; Read injects condition-dependent raw bit
// errors and runs the on-die early-retry engine.
type Chip = chip.Chip

// NewChip builds a functional chip.
func NewChip(cfg ChipConfig) (*Chip, error) { return chip.New(cfg) }

// ChipController is the off-chip half: layout restore, LDPC decode,
// descramble, and the conventional retry fallback.
type ChipController = chip.Controller

// NewChipController pairs a controller with a chip's code.
func NewChipController(code *ldpc.Code) *ChipController { return chip.NewController(code) }

// PageAddr locates a page on a functional chip.
type PageAddr = chip.PageAddr

// ChipCondition is the operating state of a functional-chip read.
type ChipCondition = chip.Condition

// PageReadStats summarizes one end-to-end functional page read.
type PageReadStats = chip.PageReadStats
