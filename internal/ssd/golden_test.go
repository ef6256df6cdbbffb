package ssd

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
)

var update = flag.Bool("update", false, "rewrite testdata/signature.golden from the current simulator")

// signatureCell is one golden run: a scheme at a wear level, optionally
// with fault injection.
type signatureCell struct {
	name   string
	scheme Scheme
	pe     int
	faults faults.Config
}

// signatureCells covers every scheme at 0 and 2K P/E plus one cell
// that fires every fault class, so the retry ladders, the sentinel
// read and the degradation paths are all on the pinned path.
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
	return cells
}

// signature renders the simulated outcome of one run: bandwidth, read
// p99, retry rounds, RVS re-reads, array senses and the number of
// events the engine processed. Any change to event order, RNG draw
// order or an RBER bit moves at least one of them.
func signature(t *testing.T, c signatureCell) string {
	t.Helper()
	cfg := smallConfig(c.scheme, c.pe)
	cfg.Faults = c.faults
	s, err := New(cfg, smallWorkload(t, "Ali124", 1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run(500)
	if err != nil {
		t.Fatal(err)
	}
	var senses int64
	for _, n := range s.BlockState().Senses {
		senses += n
	}
	return fmt.Sprintf("%s bw=%.17g p99=%.17g rounds=%d rvs=%d senses=%d events=%d",
		c.name, m.Bandwidth(), m.ReadLatencies.Percentile(99),
		m.RetryRounds, m.RVSRereads, senses, s.Engine().Processed())
}

// TestSignatureGolden pins every scheme's simulated metrics against
// values captured before the request path was restructured: a pure
// performance change must leave every line byte-identical. Regenerate
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
