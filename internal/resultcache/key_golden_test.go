package resultcache

import (
	"sync"
	"testing"

	"repro/internal/core"
)

// goldenKeys pins the content address of (experiment,
// DefaultRunParams) for every valid experiment at SchemaVersion 6.
// These constants are the cross-restart half of the key invariant: a
// recompiled, restarted, or different-host process must mint the very
// same addresses, or a persisted store written by one server life
// would be unreachable (or worse, mis-addressed) in the next. If a
// deliberate change to the simulator's output or to the canonical
// encoding moves these values, bump SchemaVersion and regenerate the
// table — never hand-patch a single row.
var goldenKeys = map[string]string{
	"6":                  "8bfb5dacd89bc74bac36cc0d74378b474879535177c3de9d7700b96e6b07eb5d",
	"7":                  "e115f38961d0c42d99af64a611c4754be0eceab2d7c3fa2af6c55c89d8cd1aac",
	"8":                  "2bd66e78d22b922a1779e864843aebde3699e33e8b9d8122842358ab88aaae7b",
	"17":                 "58ca385bbf10edab612ccd8639b63c9d6bbed2602614ee98134a2e0be5478fc5",
	"18":                 "1e783b1f41e1e962566fcb98e2d733904d614d6d8f6f7fb4f62125d1e485cf97",
	"19":                 "6faa1a33c57568d3d860ea918f1f3d9e1fb2a5ffa50923c7cf9ef99ada29a608",
	"overhead":           "3a6cbecfa2a0c9c8c5729ab6dc5403e03373449b0e2d81095a4ce058edd05d5e",
	"ablate-chunk":       "30f8e9001b7bc2d9abad9f362eddb3f3820cb39614e9753f3bab44537edf051a",
	"ablate-buffer":      "4e07be56248836e8f0d58628100abc1e4644b9aea7ad2c3b9b256f991d1eef0d",
	"ablate-accuracy":    "b450d1246ad8e078ecd91ab359507261f6f63b8562985b952c2df93ecc3553ef",
	"ablate-scheduling":  "94d6d495f0a45a5779fadb1a7ee217743cbb8288aa314bf8a2f9c2a0ae4843c6",
	"ablate-secondcheck": "1a1bf7abf793ba6b8147970f757af472dcdfa610186f7f713d6658706e9b6620",
	"refresh":            "2a217bbb911590cd85c9cde5eccedee8182c719314bd5c110f1fb2078c8de4c6",
	"tenants":            "f1744cca3b1898d0c4de3679f4b75f18e8641ad0683eb2d23cb5c3237a187681",
	"chaos":              "dbb1d8da6ec334269910dda0b3fb967ebbb15f94fee0552706c1d53428b14332",
	"tailsweep":          "bb9e5d116472720a9fcee774e2d3ebd21599fe47349b5b576bfb90af547cc44d",
	"agesweep":           "12d158d0ce9b540b9084277ee90159a76a6205f352838dbb7bd660846be8dcef",
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
