package ldpc

import (
	"math/rand/v2"
	"testing"
)

// TestRowGroupsMatchPortable runs the AVX2 row kernel on a row of five
// blocks in every group size, one block a pass to all five, against
// the portable kernel, for every shift of the first block at T = 8 and
// 64: groups hand each chunk's accumulators on through memory, which a
// one-pass row, all TestKernelsMatchPortable's rows, never does.
func TestRowGroupsMatchPortable(t *testing.T) {
	if !hasAVX2() {
		t.Skip("this CPU runs only the portable kernels")
	}
	rng := rand.New(rand.NewPCG(7, 42))
	for g := 1; g <= 5; g++ {
		row := func(a *checkAccs, blocks []circulant, ctv, total, next []float32, alpha float32) {
			rowGroups(a, blocks, ctv, total, next, alpha, g)
		}
		for _, T := range []int{8, 64} {
			for shift := range T {
				if diff := rowCase(row, rng, T, shift, 5); diff != "" {
					t.Fatalf("T=%d, groups of %d, first block's shift %d: %s", T, g, shift, diff)
				}
			}
		}
	}
}

// TestRowGroup checks the group sizes of the codes the figures run: one
// pass at T ≤ 256, and equal passes of at most six lines an L1 set
// above.
func TestRowGroup(t *testing.T) {
	for _, c := range []struct{ t, nb, want int }{
		{8, 33, 33}, {256, 33, 33}, {256, 40, 20}, {512, 33, 11}, {1024, 33, 6}, {2048, 33, 6}, {1024, 0, 0}, {1024, 5, 5},
	} {
		if got := rowGroup(c.t, c.nb); got != c.want {
			t.Errorf("rowGroup(%d, %d) = %d, want %d", c.t, c.nb, got, c.want)
		}
	}
}
