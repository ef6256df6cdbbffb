package core

import (
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/ssd"
)

// TestRecordFoldAllocationBudget pins what collecting a manifest adds
// to one short cell: the allocations of RunParams.record with Collect
// set, less those of the same cell without. That is the registry and
// its instruments, the fold at drain, the snapshot and the manifest;
// the fold formats no instrument name and the snapshot copies no
// instrument map.
func TestRecordFoldAllocationBudget(t *testing.T) {
	const budget = 150
	p := DefaultRunParams()
	p.Requests, p.Seed = 40, 7
	cfg := p.BuildConfig(ssd.RiF, 2000)
	mallocs := func(collect *obs.Collection) uint64 {
		q := p
		q.Collect = collect
		w, err := q.workload("Ali124")
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := q.closedLoop(cfg, "Ali124", w, q.Requests); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	const runs = 4
	var plain, collected uint64
	for i := 0; i < runs; i++ {
		plain += mallocs(nil)
		collected += mallocs(obs.NewCollection())
	}
	extra := int64(collected-plain) / runs
	t.Logf("one %d-request cell: %d allocations, %d more with Collect set", p.Requests, plain/runs, extra)
	if extra > budget {
		t.Fatalf("collecting one cell's manifest makes %d allocations, want at most %d", extra, budget)
	}
}
