// Package resultcache gives rifserve its content-addressed memory:
// because every run in this repository is a pure function of
// (experiment, configuration, seed) — the worker-invariance pins prove
// it — a completed job's artifacts can be served verbatim to any later
// submission of the same configuration. The package supplies the two
// halves of that bargain: Keyer canonicalizes the *complete* effective
// run configuration (the experiment name, the semantic RunParams
// fields, and the fully derived ssd.Config with every default folded
// in) into a deterministic byte string and hashes it to a SHA-256
// content address, and Cache is the bounded LRU (by bytes) that maps
// those addresses to stored artifacts.
//
// Two deliberate exclusions keep the address honest:
//
//   - Worker count, scheduler pool and all host-side plumbing
//     (Stop/Obs/Trace/Collect hooks) are NOT encoded: they never
//     affect output bytes, so configs differing only there must
//     collide on purpose.
//   - SchemaVersion IS encoded: bumping it invalidates every address
//     at once, which is how a code change that alters simulation
//     output (or this encoding) ships without ever serving stale
//     bytes.
package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ssd"
)

// SchemaVersion names the current (simulator output, canonical
// encoding) generation and is folded into every Key. Bump it whenever
// either changes meaning: when simulation output for a fixed config
// changes, or when a field is added to (or removed from) the encoded
// structs — the reflection guard in key_test.go fails on the latter
// until both the encoder and this constant move together.
const SchemaVersion = 7

// Key is a SHA-256 content address of one canonicalized run
// configuration.
type Key [sha256.Size]byte

// String renders the address as lowercase hex, the form logs and
// tests use.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Keyer computes content addresses. It owns a reusable encoding
// buffer, so a Keyer is single-goroutine (the serving layer guards its
// one Keyer with the submit lock); steady-state Key calls do not
// allocate — the pin in key_test.go measures exactly that.
type Keyer struct {
	buf []byte
}

// NewKeyer returns a Keyer with a warm buffer sized for the full
// canonical encoding.
func NewKeyer() *Keyer {
	return &Keyer{buf: make([]byte, 0, 512)}
}

// Key canonicalizes (experiment, params) and returns its content
// address. Every semantic input is encoded — including the complete
// derived ssd.Config, so a change to ssd.DefaultConfig's values moves
// every address — while worker counts and host-side hooks are
// deliberately left out (they cannot affect output bytes). One call
// per job submission: the cache-hit fast path.
//
//riflint:hotpath
func (k *Keyer) Key(experiment string, p core.RunParams) Key {
	b := k.buf[:0]
	b = appendU64(b, SchemaVersion)
	b = appendStr(b, experiment)

	// RunParams semantic fields (Workers, Stop, Pool, Trace,
	// Collect, Tool and the unexported grid-cell index excluded:
	// output-invariant plumbing). Experiment is
	// the argument above; p.Experiment is a manifest label the serving
	// layer derives from it.
	b = appendU64(b, uint64(int64(p.Requests)))
	b = appendU64(b, p.Seed)
	b = appendU64(b, uint64(p.FootprintPages))
	b = appendBool(b, p.Shrink)

	// The fully derived device config. The (scheme, pe) arguments are
	// placeholders — experiments sweep them per cell — but everything
	// else BuildConfig folds in (paper geometry, timings, NAND physics,
	// fault plan, controller knobs, shrink overrides) is a real input
	// to the output bytes.
	b = appendConfig(b, p.BuildConfig(ssd.Zero, 0))

	k.buf = b
	return sha256.Sum256(b)
}

// appendConfig encodes every semantic ssd.Config field in declaration
// order. Pointer-valued plumbing (Obs, Trace) is skipped: those fields
// never alter simulation results. The reflection guard in key_test.go
// pins the struct's field count so a new field cannot be added without
// revisiting this function.
func appendConfig(b []byte, c ssd.Config) []byte {
	g := c.Geometry
	b = appendU64(b, uint64(int64(g.Channels)))
	b = appendU64(b, uint64(int64(g.DiesPerChan)))
	b = appendU64(b, uint64(int64(g.PlanesPerDie)))
	b = appendU64(b, uint64(int64(g.BlocksPerPlane)))
	b = appendU64(b, uint64(int64(g.PagesPerBlock)))
	b = appendU64(b, uint64(int64(g.PageBytes)))

	t := c.Timing
	b = appendU64(b, uint64(int64(t.TR)))
	b = appendU64(b, uint64(int64(t.TProg)))
	b = appendU64(b, uint64(int64(t.TErase)))
	b = appendU64(b, uint64(int64(t.TDMAPage)))
	b = appendU64(b, uint64(int64(t.TPred)))
	b = appendU64(b, uint64(int64(t.THostPage)))

	b = appendU64(b, uint64(int64(c.Scheme)))
	b = appendU64(b, uint64(int64(c.PECycles)))
	b = appendU64(b, c.Seed)
	b = appendU64(b, uint64(int64(c.QueueDepth)))
	b = appendU64(b, uint64(int64(c.ECCBufferSlots)))
	b = appendF64(b, c.SentinelExtraReadProb)
	b = appendU64(b, uint64(int64(c.MaxRetryRounds)))
	b = appendU64(b, uint64(c.ReadReclaimThreshold))
	b = appendFaults(b, c.Faults)
	b = appendU64(b, uint64(int64(c.GCFreeBlockLow)))
	b = appendU64(b, uint64(int64(c.WriteCachePages)))
	b = appendF64(b, c.PredictionFloor)
	b = appendBool(b, c.RiFSecondCheck)
	b = appendU64(b, uint64(int64(c.DiePolicy)))
	b = appendU64(b, uint64(int64(c.ResumePenalty)))

	n := c.NANDParams
	b = appendF64(b, n.StateGap)
	b = appendF64(b, n.SigmaFresh)
	b = appendF64(b, n.RetentionShift)
	b = appendF64(b, n.RetentionWiden)
	b = appendF64(b, n.PEWiden)
	b = appendF64(b, n.PEShiftBoost)
	b = appendF64(b, n.DisturbShift)
	b = appendF64(b, n.DisturbWiden)
	b = appendF64(b, n.DisturbExp)
	b = appendF64(b, n.BlockVarSigma)
	b = appendF64(b, n.ChunkVar4K)
	b = appendF64(b, n.TrackedResidual)
	return b
}

// appendFaults encodes a fault plan in declaration order.
func appendFaults(b []byte, f faults.Config) []byte {
	b = appendF64(b, f.TransientSenseRate)
	b = appendU64(b, uint64(int64(f.MaxSenseRetries)))
	b = appendF64(b, f.StuckBlockRate)
	b = appendF64(b, f.DieDropoutRate)
	b = appendF64(b, f.ChannelCorruptRate)
	b = appendF64(b, f.MispredictRate)
	b = appendF64(b, f.DecodeTimeoutRate)
	return b
}

// appendU64 appends a big-endian 8-byte integer.
func appendU64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v) //riflint:allow alloc -- append into steady-state buffer capacity; the AllocsPerRun pin proves 0
}

// appendF64 appends a float's IEEE-754 bits, so every distinct value
// (including signed zero and NaN payloads) encodes distinctly.
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

// appendBool appends one byte.
func appendBool(b []byte, v bool) []byte {
	x := byte(0)
	if v {
		x = 1
	}
	return append(b, x) //riflint:allow alloc -- append into steady-state buffer capacity; the AllocsPerRun pin proves 0
}

// appendStr appends a length-prefixed string, keeping the overall
// encoding prefix-unambiguous.
func appendStr(b []byte, s string) []byte {
	b = appendU64(b, uint64(len(s)))
	return append(b, s...) //riflint:allow alloc -- append into steady-state buffer capacity; the AllocsPerRun pin proves 0
}
