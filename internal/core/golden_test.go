package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenDir holds one report per experiment: the byte-level pin every
// refactor and "pure speedup" is checked against across commits.
var goldenDir = filepath.Join("testdata", "golden")

// goldenParams is the corpus sizing of experiment name: small enough
// that every experiment runs in well under a second, large enough that
// retries, faults and the tail percentiles all show up in the reports.
// The LDPC rows, whose Requests is a codeword budget, run 8 codewords
// per RBER point (codeGoldenRequests): decoding is the slowest work in
// the corpus, and 20 times slower under the race detector.
func goldenParams(name string) RunParams {
	p := DefaultRunParams()
	p.Requests = 200
	if n, ok := codeGoldenRequests[name]; ok {
		p.Requests = n
	}
	p.Seed = 1
	p.Shrink = true
	return p
}

// codeGoldenRequests sizes the LDPC rows at 8 codewords per RBER point.
var codeGoldenRequests = map[string]int{
	"3":    8 * len(fig3RBERs),
	"10":   8 * len(fig10RBERs),
	"11":   8 * len(accuracyRBERs),
	"14":   8 * len(accuracyRBERs),
	"soft": 8 * len(softRBERs),
}

// checkGolden compares got against testdata/golden/<name>.txt, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name, label, got string) {
	t.Helper()
	path := filepath.Join(goldenDir, name+".txt")
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `make golden` to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s (%s) drifted from %s at line %d:\n got  %q\n want %q",
				name, label, path, i+1, g, w)
		}
	}
}

// TestGoldenReports pins every experiment's report bytes at the corpus
// sizing, on a private scheduler of one and of four workers and on a
// shared three-worker pool. Regenerate with `make golden` only when a
// change is meant to move a report, and say why in the change.
func TestGoldenReports(t *testing.T) {
	pool := fleet.NewScheduler(3)
	t.Cleanup(pool.Stop)
	for _, name := range ValidExperiments() {
		t.Run(name, func(t *testing.T) {
			for _, v := range []struct {
				label   string
				workers int
				pool    *fleet.Scheduler
			}{
				{"workers=1", 1, nil},
				{"workers=4", 4, nil},
				{"pool=3", 0, pool},
			} {
				p := goldenParams(name)
				p.Workers = v.workers
				p.Pool = v.pool
				var out bytes.Buffer
				if err := RunExperiment(&out, name, p); err != nil {
					t.Fatalf("%s: %v", v.label, err)
				}
				checkGolden(t, name, v.label, out.String())
				if *update {
					return
				}
			}
		})
	}
}
