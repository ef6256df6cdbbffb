package resultcache

import (
	"sync"
	"testing"

	"repro/internal/core"
)

// goldenKeys pins the content address of (experiment,
// DefaultRunParams) for every valid experiment at SchemaVersion 3.
// These constants are the cross-restart half of the key invariant: a
// recompiled, restarted, or different-host process must mint the very
// same addresses, or a persisted store written by one server life
// would be unreachable (or worse, mis-addressed) in the next. If a
// deliberate change to the simulator's output or to the canonical
// encoding moves these values, bump SchemaVersion and regenerate the
// table — never hand-patch a single row.
var goldenKeys = map[string]string{
	"6":                  "3994b66980646d68e188a2c282c845bf5ee1ccc41f902fb17308b9c72a00a784",
	"7":                  "bb7ea4a7865056b7c6a03c892c3baf8ae4c10f416555a54de70614ee98d6b620",
	"8":                  "f5bc58f78224d2794f04ae0d14de4a1e168f09e3dab438ee1836fe01c381111d",
	"17":                 "8c43d99293256d86ffe3d0003944cc16701abeedc3e3de3e8dc396a7ffeaf993",
	"18":                 "ffa149a1eeebf941820224e464a0f95a459a279726c536268a6624e7315ac1b5",
	"19":                 "caf5fbd33c7e3ee0039c464d512a6231040dcd21a4d05547cbd7c71da070052b",
	"overhead":           "7d0e494173ad9fadb21dbcb6f56255665e7d103e67f197c9b6c1dc9ff93205f8",
	"ablate-chunk":       "f3cf8f360ae0d385ab413bcf920dd574f7f1fb48682e94e4e07bb9689c85e6c1",
	"ablate-buffer":      "d2481361f39f25ea83fcd7cd251255376450e8798afd39f29c91d7f0715a3d78",
	"ablate-accuracy":    "7716c8c0bc1fdc75e2405a9d80204480f8bcf2f12e496972dedc1b939bf1ada0",
	"ablate-scheduling":  "1c1a4823d812d3972d1ee3bc83457a00d4c17534dd9d1aa95bef8aa8f906f08b",
	"ablate-secondcheck": "76fcbd8e7682fd78c7e2aa3d4e64426f3a9ca100df494006c04ffb1638ed6a79",
	"refresh":            "7d18bc6e39b436bfbd97c7e0990821176a4d6588f6f3ae2b27378b9fadce2d16",
	"tenants":            "9a37b0e70ae7345deb0490975726b2cc43d1717dc5ba2e45bbc1b2049754d3f0",
	"chaos":              "6cd44d8d5d7db7e289eb4cf01b29a8932f7b28518642a2fdf8ecaf28889107a5",
	"tailsweep":          "805c54665e15be5ee3ee9112c4508a9ffdbca7e7ba2e99a8c46cf7493c0e32c5",
	"agesweep":           "ec114755d148aef032cbbbd4cbc2eff7bc8730c80ea544b96256de242a54b938",
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
