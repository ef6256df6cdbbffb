package resultcache

import (
	"sync"
	"testing"

	"repro/internal/core"
)

// goldenKeys pins the content address of (experiment,
// DefaultRunParams) for every valid experiment at SchemaVersion 4.
// These constants are the cross-restart half of the key invariant: a
// recompiled, restarted, or different-host process must mint the very
// same addresses, or a persisted store written by one server life
// would be unreachable (or worse, mis-addressed) in the next. If a
// deliberate change to the simulator's output or to the canonical
// encoding moves these values, bump SchemaVersion and regenerate the
// table — never hand-patch a single row.
var goldenKeys = map[string]string{
	"6":                  "81c565b8248c5a09cd483835a8e7b82a2a4aec2d406a5332dd4e1c0c09c493c1",
	"7":                  "7aba3296bc35742a727f0b20b7e9d3f7d110172cedcb86967c2817ef13bc5d93",
	"8":                  "0572b830e1059c57f2e15f96e7dbc67df9c2f93bf3bea4b142237586e393c814",
	"17":                 "c1fb1fa44fda1e4397314ef670c1b3250e8cae26da7abf5b04b00ffd67358742",
	"18":                 "2088bf150ead146b6733804ddf2510a0bae8595a325eaeb6d5c123bd86338ae6",
	"19":                 "469c16aba0edf5de651b10b74026456391d370a103b2b28ba9f6768cc220eb9e",
	"overhead":           "72ecfb141b193ff2ac3acda6a7c2dc8ddf3eb26817c1454fbb360c1b5a45f01d",
	"ablate-chunk":       "8ff9e6b6dd5b772499cd6eed6fded2bdb75acd3063a26eba8ea62d6fbbed8206",
	"ablate-buffer":      "1131a156fdbbeff5727cc5ef082d461b01bc908408a3942450176472deab9724",
	"ablate-accuracy":    "c2091a0ef4b0ec1cb5d58026c2428b1b0f0cc0149555b1e539cb0bf30abe92f1",
	"ablate-scheduling":  "8896cc0f477779d63ae14747c59da5168fee435b7fc9a60f7be193018024563b",
	"ablate-secondcheck": "624eb5c13eae89d5d2498c341b1c54e8623a6f51748ea30939e9ed4742a7bcad",
	"refresh":            "bba7ceb24caf102876155f9c0b6cb31b7000aabd051e5b2ac52f3886942c62dc",
	"tenants":            "0de35ad2601b2f8fc23973f8945f58f0577758ea75383520ac588173baf89519",
	"chaos":              "8f608c62e3c0545bc14485ac59c518c5ed611ebb14cc3cd35d2271db97dc2f3d",
	"tailsweep":          "915fac908a42f5b19a7c1e5488245baf3e3cade9923857c169c3ac9f00f04861",
	"agesweep":           "fc1d62127e9e7f31c23b0f049e2bd9283da36573eb8377d7022a262d2ba1873e",
}

// TestGoldenKeysCoverEveryExperiment keeps the table and the
// experiment registry in lockstep.
func TestGoldenKeysCoverEveryExperiment(t *testing.T) {
	exps := core.ValidExperiments()
	if len(goldenKeys) != len(exps) {
		t.Errorf("golden table has %d rows, registry has %d experiments", len(goldenKeys), len(exps))
	}
	for _, exp := range exps {
		if _, ok := goldenKeys[exp]; !ok {
			t.Errorf("experiment %q has no golden key", exp)
		}
	}
}

// TestKeyGoldenPerExperiment pins each default-params address to its
// golden value — the restart-invariance property made executable.
func TestKeyGoldenPerExperiment(t *testing.T) {
	k := NewKeyer()
	for _, exp := range core.ValidExperiments() {
		if got := k.Key(exp, core.DefaultRunParams()).String(); got != goldenKeys[exp] {
			t.Errorf("key(%s) = %s, golden %s — if the encoding or simulator output changed on purpose, bump SchemaVersion and regenerate",
				exp, got, goldenKeys[exp])
		}
	}
}

// TestKeyInvariantAcrossMapOrderAndKeyers is the property half: the
// address must not depend on evaluation order, on which Keyer instance
// computes it, or on the goroutine doing the computing. The experiment
// set is iterated through a Go map — whose order varies per run by
// construction — from several goroutines with private Keyers, and
// every computed key must equal the golden table.
func TestKeyInvariantAcrossMapOrderAndKeyers(t *testing.T) {
	// A map iteration reorders experiments differently on every run;
	// each goroutine sees its own order.
	set := map[string]bool{}
	for _, exp := range core.ValidExperiments() {
		set[exp] = true
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := NewKeyer() // Keyers are single-goroutine; one each
			for round := 0; round < 8; round++ {
				for exp := range set {
					if got := k.Key(exp, core.DefaultRunParams()).String(); got != goldenKeys[exp] {
						select {
						case errs <- exp + ": " + got:
						default:
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("order-dependent key: %s", e)
	}
}
