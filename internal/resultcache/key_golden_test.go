package resultcache

import (
	"sync"
	"testing"

	"repro/internal/core"
)

// goldenKeys pins the content address of (experiment,
// DefaultRunParams) for every valid experiment at SchemaVersion 7.
// Adding a row adds its key and moves no other.
// These constants are the cross-restart half of the key invariant: a
// recompiled, restarted, or different-host process must mint the very
// same addresses, or a persisted store written by one server life
// would be unreachable (or worse, mis-addressed) in the next. If a
// deliberate change to the simulator's output or to the canonical
// encoding moves these values, bump SchemaVersion and regenerate the
// table — never hand-patch a single row.
var goldenKeys = map[string]string{
	"3":                  "fa418499692ca168bb47d9ae665be837fed202648a30548b784319d695377199",
	"4":                  "99205ded9ece247ddea9d4cee035683fb07d62cf2e96017f274dd51adb9e5fe6",
	"6":                  "61e9ddba21a42362c1f50f40df282370eaa9b100a9bdac62ca37572b7ffd7f69",
	"7":                  "0f20e48421d8b9db7d8feea3019726d90419f87e7b2a19ef9c55501e6b0ebaec",
	"8":                  "9bc388c46346e68a7d8f7c4821234597da4a8981e9d9e07d66e76c7e6a5190a1",
	"10":                 "4cb8d4dea94ccc0747e44e556776e0dfc3dde6fb90c9c5ea470972b6ecd96b13",
	"11":                 "a3c46c118b69f38e6328fca8817a164e3bbeeb6557864d25d3539a813dc6f8a5",
	"12":                 "621b105ba228c3ec75d58149815167c9c5d9c1cf2dee10111f439495399176ef",
	"14":                 "44c4c2af9bad15052ded2901a884946ab8a871902aada0c59ca2e2d675355f82",
	"17":                 "5d2872fb06fc50d12ebd3104d987c94d0605616802fa4ed5ec17969ded7472e7",
	"18":                 "1401320b5381243d29a78fff1fc7710c06d8d01afe9cab2e5bb3b47997d13b7c",
	"19":                 "44c71a4ead80c19d168dde9d622c760e5aaf4f3eb9d75e8a5d641fc96bc21921",
	"overhead":           "0cab067ab61fb54aca1ce636e65975f0591680e4f607d45c01db12f5bd736497",
	"ablate-chunk":       "866860653bdb650b5bead7454e0c16755232684f8669eafe770f73fab8cd8987",
	"ablate-buffer":      "4b7fcd611cc4be04ae325f6111c0a16dfddf98001c0554a46dbd533ac32c2cfb",
	"ablate-accuracy":    "7fb5804348be9f864677c4e19e6c016a82ed2b7a9fdb3bd1649853e303b0b50a",
	"ablate-scheduling":  "aa81b83f3768953509ae66d081aa1a19774b3f4654d58bdbd9dfbb29410e0db5",
	"ablate-secondcheck": "aceae552a4a84fb5e8f11019709d3f0fe4f80e7cbeec64779c11ac56b73b146d",
	"refresh":            "74dfe7a02e4e7553004dae14b99a3cb96dfde2169044d9a195cb569e5660460f",
	"tenants":            "35a905c9bbddb2f3f8176e0af77ff5c66bc4b3d1b18a262e185ec1aac292e995",
	"chaos":              "48c3b60c3d6c9e19e4bc48694e982c002bf453cb95e5c7cc8f5b011c49b688f4",
	"tailsweep":          "1721f14872cd304fa3474c7a5c220fba33cf81d5fa34ea63c6557e94ac8bd7e3",
	"agesweep":           "79ae89c5a52521616d66e704251f498a6ad2266060f157f84289831e32f21117",
	"soft":               "1489e58f029decdc7536e62af29651bf5f01700c086cc0202e9891ba90016899",
	"calibrate":          "ff7eb0cfd64e74749d4f56cf92d0a2c947d284c8e26d3088597d3cf00863fa38",
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
