package resultcache

import (
	"sync"
	"testing"

	"repro/internal/core"
)

// goldenKeys pins the content address of (experiment,
// DefaultRunParams) for every valid experiment at SchemaVersion 5.
// These constants are the cross-restart half of the key invariant: a
// recompiled, restarted, or different-host process must mint the very
// same addresses, or a persisted store written by one server life
// would be unreachable (or worse, mis-addressed) in the next. If a
// deliberate change to the simulator's output or to the canonical
// encoding moves these values, bump SchemaVersion and regenerate the
// table — never hand-patch a single row.
var goldenKeys = map[string]string{
	"6":                  "e430646ac11d628d28ec7daf32319813fc2a7c4a966568ba29af9a5bcdf365a0",
	"7":                  "10bafcde45d33cda52c4de8a8e743d43543f5dc5e16cbd291d3ae50bb5de38b4",
	"8":                  "39f76e8a800ddfdc7a953ba1c839cf9f7bc6f9a47d1f6e99e7ae6febaa5c5052",
	"17":                 "bcab020c208a8fb35930c64d0b232ecaaf720cb6258a42eece359df2e31f2d7c",
	"18":                 "14d284c6d79eebfb702c6c30364c7be9e095dc8a324153e07893363ce3ccd2a7",
	"19":                 "5b4ee8f60b20eac6c2028d8f08f5319428428fd350b157972ad4630b62bc456d",
	"overhead":           "a8c06d1d64819eb7676ea47d69e8c0ff3e4c3744a4a33da399aa7db819612223",
	"ablate-chunk":       "c278ba75af5948268db3d0787de682b3140c0e95aaa1b79f5420b0a4377feeb7",
	"ablate-buffer":      "bf995c56f5dc72241b69a49055f0e659d2eb9793b05508cc726b664f87f705f7",
	"ablate-accuracy":    "a99a7555050bfd39d8a488b0baa860176d422104cfc03885a9d09a5189e382a5",
	"ablate-scheduling":  "b65a58d44f151d4d0571110a3547546415427492569ff8b590433a981229030d",
	"ablate-secondcheck": "134f35c21f68bc06fddb96bb9beb3fab7afc3de6ce338c0a2674a75f83c920d1",
	"refresh":            "8af496def9ce3e551853994f1045363ad9aa0ea0afaa021e3b9ce680269933b8",
	"tenants":            "f9fb2254641d4495dc78d54be6ef1eecee1278e518b22a619f01ddb390954800",
	"chaos":              "628c3a730e5024fc7ee57c68eefd7c5aaa5e55d7a2f3715439014a4b81ab57c2",
	"tailsweep":          "83930b66d7f62e6372427a6e7cbf09429af61883f7e6f8a52512ddf7595b4467",
	"agesweep":           "10ad6a73ba81ed24ad4db5b1aa2559189ee35429bf2ed5df01d08c6eb68d55d3",
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
