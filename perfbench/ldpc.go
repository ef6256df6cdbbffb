package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/ldpc"
	"repro/internal/nand"
	"repro/internal/odear"
)

// ldpc-code runs the code-level path behind Figs. 3/10/11/14 on the
// figures' QC-LDPC code (4×36 blocks, t=256): encode, channel (exactly
// k flipped bits), min-sum decode, syndrome weight, and the exact and
// pruned RP weights, at RBER points on both sides of the 0.0085
// capability. It is the only workload where package ldpc runs: the SSD
// simulator uses a probability model instead.

// ldpcRBERs are the channel error rates, two below and two above the
// capability; ldpcAbove indexes the one whose decode failures the load
// guard requires.
var ldpcRBERs = []float64{0.006, 0.008, 0.0095, 0.011}

const (
	ldpcAbove = 2
	// ldpcPerPoint is the codewords per RBER point in one pass.
	ldpcPerPoint = 8
	// ldpcStreams is how many distinct seeded passes a run cycles
	// through; a pass that repeats a stream must repeat its iteration
	// counts exactly.
	ldpcStreams = 16
)

type ldpcRig struct {
	code          *ldpc.Code
	dec           *ldpc.MinSumDecoder
	exact, pruned *odear.RP
}

func newLDPCRig() *ldpcRig {
	cp := core.DefaultCodeParams()
	code := ldpc.NewCode(cp.BlockRows, cp.BlockCols, cp.Circulant, cp.Seed)
	return &ldpcRig{
		code:   code,
		dec:    ldpc.NewMinSumDecoder(code, 0),
		exact:  odear.NewRP(code, nand.ECCCapabilityRBER, false),
		pruned: odear.NewRP(code, nand.ECCCapabilityRBER, true),
	}
}

// ldpcSig is what must repeat exactly between passes.
type ldpcSig struct {
	iters, fails, miscorrect [4]int
	weights                  int64
}

// ldpcAcc folds a traced run's per-stage times (ns) and decode counts.
type ldpcAcc struct {
	n                                    int64
	encNS, syndromeNS, exactNS, prunedNS int64
	decodeUS                             []float64
	iters, ok                            int64
}

// pass encodes, corrupts and decodes the codewords of one seeded
// stream, returning the per-codeword times (ms) and the pass's
// signature.
func (rig *ldpcRig) pass(seed uint64, stream int, c *checks, tr *tracer, parent int32, acc *ldpcAcc) ([]float64, ldpcSig) {
	rng := rand.New(rand.NewPCG(seed, 53+uint64(stream)))
	var sig ldpcSig
	var times []float64
	item := int64(stream * len(ldpcRBERs) * ldpcPerPoint)
	for j, rber := range ldpcRBERs {
		k := int(rber*float64(rig.code.N()) + 0.5)
		for s := 0; s < ldpcPerPoint; s++ {
			data := ldpc.RandomBits(rig.code.K(), rng)
			start := time.Now()
			root := tr.begin("ldpc.codeword", parent, item)
			sp := tr.begin("ldpc.Code.Encode", root, item)
			cw := rig.code.Encode(data)
			dEnc := tr.end(sp)
			sp = tr.begin("ldpc.FlipExact", root, item)
			rx := ldpc.FlipExact(cw, k, rng)
			tr.end(sp)
			sp = tr.begin("ldpc.MinSumDecoder.Decode", root, item)
			res := rig.dec.Decode(rx)
			dDec := tr.end(sp)
			// A decode that converges must land on a codeword. It may be
			// another codeword than the one sent: the code has low-weight
			// codewords, so min-sum occasionally miscorrects near the
			// capability. That is a property of the code, deterministic at
			// a seed, and is counted rather than failed.
			c.check(!res.OK || rig.code.SyndromeWeight(res.Word) == 0, "ldpc-code: decode at RBER %v reported success on a non-codeword", rber)
			if res.OK && !res.Word.Equal(cw) {
				sig.miscorrect[j]++
			}
			sp = tr.begin("ldpc.Code.SyndromeWeight", root, item)
			sw := rig.code.SyndromeWeight(rx)
			dSyn := tr.end(sp)
			sp = tr.begin("odear.RP.Weight/exact", root, item)
			we := rig.exact.Weight(rx)
			dExact := tr.end(sp)
			sp = tr.begin("odear.RP.Weight/pruned", root, item)
			wp := rig.pruned.Weight(rx)
			dPruned := tr.end(sp)
			tr.end(root)
			times = append(times, ms(time.Since(start)))
			c.check(we == sw, "ldpc-code: exact RP weight %d, syndrome weight %d", we, sw)

			sig.iters[j] += res.Iterations
			if !res.OK {
				sig.fails[j]++
			}
			sig.weights += int64(sw + wp)
			if acc != nil {
				acc.n++
				acc.encNS += dEnc.Nanoseconds()
				acc.syndromeNS += dSyn.Nanoseconds()
				acc.exactNS += dExact.Nanoseconds()
				acc.prunedNS += dPruned.Nanoseconds()
				acc.decodeUS = append(acc.decodeUS, float64(dDec.Nanoseconds())/1e3)
				acc.iters += int64(res.Iterations)
				if res.OK {
					acc.ok++
				}
			}
			item++
		}
	}
	return times, sig
}

func runLDPC(e *env) (*outcome, error) {
	o := &outcome{unit: "codeword", item: "codeword", tailQ: 0.95}
	var rig *ldpcRig
	first := make([]*ldpcSig, ldpcStreams)
	note := func(stream int, s ldpcSig, what string) {
		f := first[stream]
		if f == nil {
			first[stream] = &s
			return
		}
		o.checks.check(s.iters == f.iters, "ldpc-code %s: ldpc.iters_per_decode drifted (%v -> %v)", what, f.iters, s.iters)
		o.checks.check(s == *f, "ldpc-code %s: decode outcomes drifted (%+v -> %+v)", what, *f, s)
	}
	var err error
	o.setups, err = setUp(e.reps, nil, func() error {
		rig = newLDPCRig()
		_, s := rig.pass(e.seed, 0, &o.checks, nil, 0, nil)
		note(0, s, "warm-up")
		return nil
	})
	if err != nil {
		return nil, err
	}

	var acc *ldpcAcc
	if e.tr != nil {
		acc = &ldpcAcc{}
	}
	passS := make([][]float64, ldpcStreams)
	tp := startTimed()
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		stream := k % ldpcStreams
		start := time.Now()
		times, s := rig.pass(e.seed, stream, &o.checks, e.tr, e.span, acc)
		passS[stream] = append(passS[stream], time.Since(start).Seconds())
		note(stream, s, fmt.Sprintf("pass %d", k))
		o.ops += int64(len(times))
		o.itemMS = append(o.itemMS, times...)
	}
	tp.finish(o)
	// Throughput from each stream's median pass time, as grid-closed
	// does per cell.
	var sumS, sumCW float64
	for _, ts := range passS {
		if len(ts) > 0 {
			sumS += median(ts)
			sumCW += float64(len(ldpcRBERs) * ldpcPerPoint)
		}
	}
	o.opsPerSec = ratio(sumCW, sumS)

	var fails, miscorrect, decodes int
	h := sha256.New()
	for _, f := range first {
		if f != nil {
			fails += f.fails[ldpcAbove]
			for _, n := range f.miscorrect {
				miscorrect += n
			}
			decodes += len(ldpcRBERs) * ldpcPerPoint
			fmt.Fprintf(h, "%+v\n", *f)
		}
	}
	o.checks.check(fails > 0,
		"ldpc-code: no decode failures at RBER %v, above the capability; the failure path went unloaded", ldpcRBERs[ldpcAbove])
	o.digest = fmt.Sprintf("sha256:%x", h.Sum(nil)[:12])
	o.notes = append(o.notes, fmt.Sprintf("stream 0 at RBER %v: iterations %v, failures %v of %d", ldpcRBERs,
		first[0].iters, first[0].fails, ldpcPerPoint),
		fmt.Sprintf("miscorrections (converged on another codeword): %d of %d distinct decodes", miscorrect, decodes))

	if acc != nil {
		n := float64(acc.n)
		o.layers = map[string]float64{
			"ldpc.encode_us":            float64(acc.encNS) / 1e3 / n,
			"ldpc.decode_us_p50":        median(acc.decodeUS),
			"ldpc.decode_us_p95":        quantile(acc.decodeUS, 0.95),
			"ldpc.iters_per_decode":     float64(acc.iters) / n,
			"ldpc.decode_ok_frac":       float64(acc.ok) / n,
			"ldpc.miscorrect_frac":      ratio(float64(miscorrect), float64(decodes)),
			"ldpc.syndrome_weight_us":   float64(acc.syndromeNS) / 1e3 / n,
			"odear.rp_weight_exact_us":  float64(acc.exactNS) / 1e3 / n,
			"odear.rp_weight_pruned_us": float64(acc.prunedNS) / 1e3 / n,
		}
	}
	return o, nil
}
