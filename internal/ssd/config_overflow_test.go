package ssd

import (
	"math"
	"testing"

	"repro/internal/nand"
)

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
