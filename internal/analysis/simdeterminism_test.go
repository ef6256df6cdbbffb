package analysis

import "testing"

func TestSimDeterminismWallClock(t *testing.T) {
	runGolden(t, SimDeterminism, "riflint.test/simdeterminism/wallclock")
}

func TestSimDeterminismGlobalRand(t *testing.T) {
	runGolden(t, SimDeterminism, "riflint.test/simdeterminism/globalrand")
}

func TestSimDeterminismMapOrder(t *testing.T) {
	runGolden(t, SimDeterminism, "riflint.test/simdeterminism/maporder")
}

// A fleet-style worker pool (pre-indexed result slots, per-worker
// seeded RNG streams) must pass clean; a pool whose workers draw the
// process-global stream must be flagged.
func TestSimDeterminismFleetPool(t *testing.T) {
	runGolden(t, SimDeterminism, "riflint.test/simdeterminism/fleetpool")
}

// The deep-sim blast radius is derived from the import graph, not a
// hand list. Unit-check the derivation on a synthetic graph: roots are
// deep, transitive importers are deep, module deps of importers are
// deep (their output feeds sim-driven artifacts), unrelated leaves and
// the standard library are not.
func TestDeriveDeepSimSyntheticGraph(t *testing.T) {
	listed := []*listedPackage{
		{ImportPath: "repro/internal/sim"},
		{ImportPath: "repro/internal/util"},
		{ImportPath: "repro/internal/plot"},
		{ImportPath: "repro/internal/core", Deps: []string{"repro/internal/sim", "repro/internal/plot", "fmt"}},
		{ImportPath: "repro/internal/analysis"},
		{ImportPath: "fmt", Standard: true},
	}
	deep := deriveDeepSim(listed)
	for path, want := range map[string]bool{
		"repro/internal/sim":      true,  // root
		"repro/internal/core":     true,  // transitively imports a root
		"repro/internal/plot":     true,  // dep of an importer: feeds its output
		"repro/internal/util":     false, // unrelated leaf
		"repro/internal/analysis": false, // lint tooling is outside the radius
		"fmt":                     false, // stdlib never deep
	} {
		if deep[path] != want {
			t.Errorf("deep[%q] = %v, want %v", path, deep[path], want)
		}
	}
}

// The derived set must cover every package the old hand-maintained
// deepSimPackages list named — PRs 4–6 each had to remember to extend
// that list by hand; the derivation must not regress any of them.
func TestDerivedDeepSimCoversSimPackages(t *testing.T) {
	listed, err := goList("", []string{"repro/..."})
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	deep := deriveDeepSim(listed)
	for _, path := range []string{
		"repro/internal/sim", "repro/internal/ssd", "repro/internal/nand",
		"repro/internal/chip", "repro/internal/odear", "repro/internal/ecc",
		"repro/internal/ldpc", "repro/internal/core",
		"repro/internal/faults", "repro/internal/replay", "repro/internal/serve",
	} {
		if !deep[path] {
			t.Errorf("expected %s to derive as deep-sim", path)
		}
	}
	for _, path := range []string{"repro/internal/analysis", "repro/cmd/riflint"} {
		if deep[path] {
			t.Errorf("%s derived as deep-sim; the lint tooling should sit outside the blast radius", path)
		}
	}
}
