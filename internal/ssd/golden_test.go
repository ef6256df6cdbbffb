package ssd

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/signature.golden from the current simulator")

// signatureCell is one golden run: a scheme at a wear level, optionally
// with fault injection.
type signatureCell struct {
	name   string
	scheme Scheme
	pe     int
	faults faults.Config
	// gcPath runs the write-heavy GC-path device (gcPathRun) instead
	// of 500 requests of Ali124.
	gcPath bool
}

// signatureCells covers every scheme at 0 and 2K P/E, one cell that
// fires every fault class, so the retry ladders, the sentinel read and
// the degradation paths are all on the pinned path, and one GC-path
// cell that pins garbage collection, wear leveling, read-reclaim and
// block retirement.
func signatureCells() []signatureCell {
	var cells []signatureCell
	for _, pe := range []int{0, 2000} {
		for _, sc := range AllSchemes() {
			cells = append(cells, signatureCell{name: fmt.Sprintf("%s/%d", sc, pe), scheme: sc, pe: pe})
		}
	}
	cells = append(cells, signatureCell{
		name:   "RiFSSD/2000/faults",
		scheme: RiF,
		pe:     2000,
		faults: faults.Config{
			TransientSenseRate: 0.05,
			StuckBlockRate:     0.02,
			DieDropoutRate:     0.1,
			ChannelCorruptRate: 0.05,
			MispredictRate:     0.05,
			DecodeTimeoutRate:  0.05,
		},
	})
	cells = append(cells, signatureCell{name: "RiFSSD/2000/gc", scheme: RiF, pe: 2000, gcPath: true})
	return cells
}

// gcPathRun runs 3,000 requests of a write-heavy Ali2 variant on a
// small array (8 planes of 24 write-region blocks of 16 pages, GC at 4
// free blocks), so greedy GC relocates valid pages and every erase
// feeds the wear-leveling scan. Reads go mostly to written data, so
// read-reclaim at 16 senses migrates write-region blocks as well as
// refreshing pre-fill ones, and 1% of blocks are stuck, so some are
// retired. It renders the signature's counters of those paths and
// fails if any is zero: a pin of a path the run never takes pins
// nothing.
func gcPathRun(t *testing.T, c signatureCell) (*SSD, *Metrics, string) {
	t.Helper()
	cfg := smallConfig(c.scheme, c.pe)
	cfg.Geometry.Channels, cfg.Geometry.DiesPerChan, cfg.Geometry.PlanesPerDie = 2, 2, 2
	cfg.Geometry.BlocksPerPlane, cfg.Geometry.PagesPerBlock = 48, 16
	cfg.QueueDepth = 16
	cfg.GCFreeBlockLow = 4
	cfg.ReadReclaimThreshold = 16
	cfg.Faults = faults.Config{StuckBlockRate: 0.01}
	spec, err := trace.ByName("Ali2")
	if err != nil {
		t.Fatal(err)
	}
	spec.FootprintPages, spec.HotFraction, spec.ColdReadRatio = 1536, 0.5, 0.1
	w, err := trace.NewGenerator(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run(3000)
	if err != nil {
		t.Fatal(err)
	}
	var erases, reads int64
	st := s.BlockState()
	for i := range st.Erases {
		erases += st.Erases[i]
		reads += st.Reads[i]
	}
	counters := []struct {
		name string
		n    int64
	}{
		{"gc", m.GCRuns}, {"relocated", m.PagesRelocated},
		{"reclaims", m.ReadReclaims}, {"migrated", m.ReclaimPagesMigrated},
		{"grownbad", m.Faults.GrownBadBlocks}, {"erases", erases}, {"reads", reads},
	}
	var b strings.Builder
	for _, k := range counters {
		if k.n <= 0 {
			t.Errorf("%s: %s = %d; the GC-path cell no longer covers that path", c.name, k.name, k.n)
		}
		fmt.Fprintf(&b, " %s=%d", k.name, k.n)
	}
	return s, m, b.String()
}

// signature renders the simulated outcome of one run: bandwidth, read
// p99, retry rounds, RVS re-reads, array senses and the number of
// events the engine processed. Any change to event order, RNG draw
// order or an RBER bit moves at least one of them.
func signature(t *testing.T, c signatureCell) string {
	t.Helper()
	var (
		s     *SSD
		m     *Metrics
		extra string
	)
	if c.gcPath {
		s, m, extra = gcPathRun(t, c)
	} else {
		cfg := smallConfig(c.scheme, c.pe)
		cfg.Faults = c.faults
		var err error
		if s, err = New(cfg, smallWorkload(t, "Ali124", 1)); err != nil {
			t.Fatal(err)
		}
		if m, err = s.Run(500); err != nil {
			t.Fatal(err)
		}
	}
	var senses int64
	for _, n := range s.BlockState().Senses {
		senses += n
	}
	return fmt.Sprintf("%s bw=%.17g p99=%.17g rounds=%d rvs=%d senses=%d events=%d%s",
		c.name, m.Bandwidth(), m.ReadLatencies.Percentile(99),
		m.RetryRounds, m.RVSRereads, senses, s.Engine().Processed(), extra)
}

// TestSignatureGolden pins every scheme's simulated metrics against
// values captured before the request path was restructured, and the
// GC-path line against values captured before the FTL's per-block
// state moved into the device's block table: a pure performance change
// must leave every line byte-identical. Regenerate
// with `go test ./internal/ssd -run TestSignatureGolden -update` only
// when the model itself changes, and say why in the change.
func TestSignatureGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range signatureCells() {
		b.WriteString(signature(t, c))
		b.WriteByte('\n')
	}
	got := b.String()
	path := filepath.Join("testdata", "signature.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := ""
				if i < len(wl) {
					w = wl[i]
				}
				t.Errorf("signature drift:\n got  %s\n want %s", gl[i], w)
			}
		}
		if len(wl) > len(gl) {
			t.Errorf("golden has %d lines, run produced %d", len(wl), len(gl))
		}
	}
}
