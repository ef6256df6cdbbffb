package rif_test

import (
	"bytes"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	rif "repro"
)

func fastParams() rif.RunParams {
	p := rif.DefaultRunParams()
	p.Requests = 200
	return p
}

func TestPublicSchemes(t *testing.T) {
	schemes := rif.AllSchemes()
	if len(schemes) != 7 {
		t.Fatalf("%d schemes", len(schemes))
	}
	if rif.RiFSSD.String() != "RiFSSD" || rif.SENC.String() != "SENC" {
		t.Fatal("scheme names wrong through the public API")
	}
}

func TestPublicWorkloads(t *testing.T) {
	if len(rif.Workloads()) != 8 || len(rif.WorkloadNames()) != 8 {
		t.Fatal("Table II incomplete")
	}
	spec, err := rif.WorkloadByName("Sys0")
	if err != nil || spec.ReadRatio != 0.70 {
		t.Fatalf("Sys0 lookup: %+v %v", spec, err)
	}
	if _, err := rif.WorkloadByName("bogus"); err == nil {
		t.Fatal("bogus workload accepted")
	}
}

func TestPublicEndToEnd(t *testing.T) {
	cfg := rif.DefaultConfig(rif.RiFSSD, 1000)
	cfg.Geometry.BlocksPerPlane = 128
	cfg.Geometry.PagesPerBlock = 64
	spec, _ := rif.WorkloadByName("Ali121")
	spec.FootprintPages = 1 << 15
	w, err := rif.NewWorkload(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := rif.New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dev.Run(150)
	if err != nil {
		t.Fatal(err)
	}
	if m.RequestsCompleted != 150 || m.Bandwidth() <= 0 {
		t.Fatalf("bad metrics %v", m)
	}
}

func TestPublicRunHelper(t *testing.T) {
	m, err := rif.Run(fastParams(), rif.SSDOne, "Sys1", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if m.RetryRate() == 0 {
		t.Fatal("no retries at 2K on Sys1")
	}
}

func TestPublicCompareSchemes(t *testing.T) {
	tbl, err := rif.CompareSchemes(fastParams(),
		[]rif.Scheme{rif.SENC, rif.RiFSSD}, []string{"Ali124"}, []int{2000})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.GeoMeanGain(rif.RiFSSD, rif.SENC, 2000) <= 0 {
		t.Fatal("RiF not ahead of SENC at 2K")
	}
}

// TestPublicExperiments runs every experiment through the public
// table at the golden corpus sizing: each report must match
// internal/core's pinned bytes, so the public API and the CLIs render
// the same reports. As in the corpus, the LDPC rows run 8 codewords
// per RBER point (Figs. 3, 10, 11 and 14 and soft have 8, 16, 16, 16
// and 6 points).
func TestPublicExperiments(t *testing.T) {
	codewords := map[string]int{"3": 64, "10": 128, "11": 128, "14": 128, "soft": 48}
	p := rif.DefaultRunParams()
	p.Seed = 1
	p.Shrink = true
	names := rif.Experiments()
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			p := p
			p.Requests = 200
			if n, ok := codewords[name]; ok {
				p.Requests = n
			}
			want, err := os.ReadFile(filepath.Join("internal", "core", "testdata", "golden", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := rif.RunExperiment(&out, name, p); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("report differs from the golden corpus:\n%s", out.Bytes())
			}
		})
	}

	err := rif.RunExperiment(io.Discard, "bogus", p)
	if err == nil || !strings.Contains(err.Error(), strings.Join(names, ", ")) {
		t.Fatalf("unknown experiment: %v, want an error listing %v", err, names)
	}
}

// TestPublicObservability attaches every public obs constructor: a
// manifest collection and a tracer to an experiment's RunParams, and a
// registry to a device's Config.
func TestPublicObservability(t *testing.T) {
	p := fastParams()
	p.Collect = rif.NewRunCollection()
	p.Trace = rif.NewTracer(0)
	if err := rif.RunExperiment(io.Discard, "overhead", p); err != nil {
		t.Fatal(err)
	}
	if p.Collect.Len() == 0 {
		t.Fatal("collection recorded no runs")
	}
	if p.Trace.Len() == 0 {
		t.Fatal("tracer recorded no spans")
	}

	cfg := rif.DefaultConfig(rif.RiFSSD, 2000)
	cfg.Geometry.BlocksPerPlane = 128
	cfg.Geometry.PagesPerBlock = 64
	cfg.Obs = rif.NewRegistry()
	spec, _ := rif.WorkloadByName("Ali124")
	spec.FootprintPages = 1 << 15
	w, err := rif.NewWorkload(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := rif.New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Run(150); err != nil {
		t.Fatal(err)
	}
	if snap := cfg.Obs.Snapshot(); len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Fatalf("registry received no data: %+v", snap)
	}
}

// TestPublicChip reads one aged MSB page back through the functional
// chip with the on-die engine on, as examples/datapath does.
func TestPublicChip(t *testing.T) {
	cfg := rif.DefaultChipConfig()
	cfg.ODEAR = true
	dev, err := rif.NewChip(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := rif.NewChipController(cfg.Code)
	rng := rand.New(rand.NewPCG(42, 0))
	data := make([]byte, cfg.PageBytes)
	for i := range data {
		data[i] = byte(rng.UintN(256))
	}
	addr := rif.PageAddr{Plane: 0, Block: 0, Page: 2}
	if err := dev.Program(addr, data); err != nil {
		t.Fatal(err)
	}
	stats, err := ctrl.ReadPage(dev, addr, rif.ChipCondition{PECycles: 2000, RetentionDays: 21}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.OK || !bytes.Equal(stats.Data, data) {
		t.Fatal("page not recovered byte-exactly")
	}
	if stats.OffChipRetries != 0 {
		t.Fatalf("ODEAR chip needed %d off-chip retries", stats.OffChipRetries)
	}
}
