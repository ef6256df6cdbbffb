// Golden fixture for simdeterminism against worker-pool code: the
// fleet-style pool (pre-indexed result slots, per-worker seeded RNG
// streams) must stay silent, while a pool whose workers draw from the
// process-global random stream must be flagged.
package fleetpool

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// cleanPool keeps fleet.Scheduler's contract in its simplest shape: an
// atomic counter hands out indices, each result lands in its slot,
// and any randomness comes from a stream seeded by the cell index.
// Nothing here is nondeterministic in the outputs, and riflint agrees.
func cleanPool(n, workers int, seed uint64) []float64 {
	out := make([]float64, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				rng := rand.New(rand.NewPCG(seed, uint64(i)))
				out[i] = rng.Float64()
			}
		}()
	}
	wg.Wait()
	return out
}

// sharedRNGPool is the determinism bug the fleet design exists to
// prevent: workers sample the process-global stream, so the values
// each cell sees depend on goroutine scheduling.
func sharedRNGPool(n, workers int) []int {
	out := make([]int, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = rand.IntN(1000) // want `math/rand/v2\.IntN draws from the process-global random stream`
			}
		}()
	}
	wg.Wait()
	return out
}
