package ssd

import (
	"math"
	"testing"

	"repro/internal/nand"
	"repro/internal/sim"
)

// TestRetryBackoffOverflowRejected pins the Validate guard on the
// retry ladder: (MaxRetryRounds-1)*RetryBackoff must stay inside the
// int64 sim clock, otherwise the deepest round's sense time wraps
// into the past.
func TestRetryBackoffOverflowRejected(t *testing.T) {
	base := DefaultConfig(RiF, 1000)
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}

	over := base
	over.MaxRetryRounds = 4
	over.RetryBackoff = sim.MaxTime / 2 // *3 rounds overflows
	if over.Validate() == nil {
		t.Fatal("overflowing retry ladder accepted")
	}

	neg := base
	neg.RetryBackoff = -1
	if neg.Validate() == nil {
		t.Fatal("negative retry backoff accepted")
	}

	// The exact boundary — (rounds-1)*backoff == MaxTime — still fits
	// the clock and must be accepted.
	edge := base
	edge.MaxRetryRounds = 3
	edge.RetryBackoff = sim.MaxTime / 2
	if err := edge.Validate(); err != nil {
		t.Fatalf("boundary retry ladder rejected: %v", err)
	}

	// Degenerate ladders can never overflow: one round pays no
	// backoff at all.
	single := base
	single.MaxRetryRounds = 1
	single.RetryBackoff = sim.MaxTime
	if err := single.Validate(); err != nil {
		t.Fatalf("single-round ladder rejected: %v", err)
	}
}

// TestGeometryPageCountFitsFTL pins the Validate guard on the FTL's
// uint32 physical page numbers: Table I fits, a geometry with exactly
// MaxUint32 pages fits, one more page does not, and dimensions whose
// product overflows int64 are rejected rather than wrapping.
func TestGeometryPageCountFitsFTL(t *testing.T) {
	cfg := DefaultConfig(RiF, 1000)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Table I geometry rejected: %v", err)
	}
	// 3 * 5 * 17 * 257 * 65537 == MaxUint32.
	cfg.Geometry = nand.Geometry{Channels: 3, DiesPerChan: 5, PlanesPerDie: 17,
		BlocksPerPlane: 257, PagesPerBlock: 65537, PageBytes: 16384}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("MaxUint32-page geometry rejected: %v", err)
	}
	cfg.Geometry = nand.Geometry{Channels: 1, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerPlane: 1 << 16, PagesPerBlock: 1 << 16, PageBytes: 16384}
	if cfg.Validate() == nil {
		t.Fatal("2^32-page geometry accepted")
	}
	cfg.Geometry = nand.PaperGeometry()
	cfg.Geometry.BlocksPerPlane, cfg.Geometry.PagesPerBlock = math.MaxInt64/2, 4
	if cfg.Validate() == nil {
		t.Fatal("geometry whose page count overflows int64 accepted")
	}
}
