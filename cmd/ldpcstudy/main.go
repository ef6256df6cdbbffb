// Command ldpcstudy regenerates the code-level figures of the RiF
// paper with the real QC-LDPC machinery: the decoder capability curve
// (Fig. 3), the RBER-to-syndrome-weight correlation (Fig. 10), and
// the RP prediction accuracy with and without the hardware
// approximations (Figs. 11 and 14).
//
// Usage:
//
//	ldpcstudy -fig 3  [-t 256] [-samples 200]
//	ldpcstudy -fig 10
//	ldpcstudy -fig 11
//	ldpcstudy -fig 14
//
// Use -t 1024 for the paper-scale 4-KiB codeword (slower).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/ldpc"
	"repro/internal/nand"
	"repro/internal/plot"
)

func main() {
	fig := flag.Int("fig", 3, "figure to regenerate: 3, 10, 11 or 14 (0 = soft-decoding study)")
	t := flag.Int("t", 256, "circulant size (1024 = paper scale)")
	samples := flag.Int("samples", 200, "codewords per RBER point")
	seed := flag.Uint64("seed", 7, "random seed")
	alist := flag.String("alist", "", "write the parity-check matrix to this file (alist format) and exit")
	flag.Parse()

	p := core.DefaultCodeParams()
	p.Circulant = *t
	p.Samples = *samples
	p.Seed = *seed

	if *alist != "" {
		if err := dumpAlist(p, *alist); err != nil {
			fmt.Fprintln(os.Stderr, "ldpcstudy:", err)
			os.Exit(1)
		}
		return
	}

	if err := run(*fig, p); err != nil {
		fmt.Fprintln(os.Stderr, "ldpcstudy:", err)
		os.Exit(1)
	}
}

// dumpAlist exports the study's exact parity-check matrix for
// cross-checking against external LDPC tools.
func dumpAlist(p core.CodeParams, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	code := ldpc.NewCode(p.BlockRows, p.BlockCols, p.Circulant, p.Seed)
	if err := code.WriteAlist(f); err != nil {
		return err
	}
	fmt.Printf("wrote %dx%d parity-check matrix to %s\n", code.M(), code.N(), path)
	return nil
}

func run(fig int, p core.CodeParams) error {
	switch fig {
	case 0:
		points, softCap := core.SoftGainStudy(p, nil)
		fmt.Println("Extension — soft-decision decoding gain over the hard capability")
		fmt.Print(core.FormatSoftGain(points, softCap))
		return nil

	case 3:
		fmt.Printf("Fig. 3 — QC-LDPC capability (N=%d bits, %d samples/point)\n",
			p.BlockCols*p.Circulant, p.Samples)
		points := core.Fig3(p, nil)
		fmt.Print(core.FormatFig3(points))
		var fail, iters plot.Series
		fail.Name = "P(failure)"
		iters.Name = "avg iterations / 20"
		for _, pt := range points {
			fail.Points = append(fail.Points, plot.XY{X: pt.RBER * 1000, Y: pt.FailureProb})
			iters.Points = append(iters.Points, plot.XY{X: pt.RBER * 1000, Y: pt.AvgIters / 20})
		}
		fmt.Println()
		fmt.Print(plot.Chart("capability cliff (x: RBER x1e-3)", []plot.Series{fail, iters}, 56, 12))
		fmt.Printf("paper: failure probability exceeds 1e-1 and iterations reach 20 near RBER %.4f\n",
			nand.ECCCapabilityRBER)
		return nil

	case 10:
		points, rhoFull, rhoPruned := core.Fig10(p, nil)
		fmt.Println("Fig. 10 — RBER vs syndrome weight")
		fmt.Print(core.FormatFig10(points, rhoFull, rhoPruned))
		fmt.Println("paper: rhoS = 3830 at RBER 0.0085 for the full 4-KiB code")
		return nil

	case 11, 14:
		approx := fig == 14
		label := "w/o approximations (Fig. 11)"
		paper := 0.991
		if approx {
			label = "w/ chunking + syndrome pruning (Fig. 14)"
			paper = 0.987
		}
		points := core.RPAccuracy(p, nil, approx)
		fmt.Printf("RP prediction accuracy %s\n", label)
		fmt.Print(core.FormatAccuracy(points))
		fmt.Printf("mean accuracy above capability: %.3f (paper: %.3f)\n",
			core.MeanAccuracyAbove(points, nand.ECCCapabilityRBER), paper)
		return nil
	}
	return fmt.Errorf("unknown figure %d", fig)
}
