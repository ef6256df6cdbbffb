// Package chip is a functional model of a RiF-enabled NAND flash
// chip — the counterpart of the paper's prototype chip. Unlike the
// timing simulator in internal/ssd, this model stores and returns
// real bits: programming a page scrambles the data, LDPC-encodes it,
// applies the §V-B codeword rearrangement and stores the result;
// reading a page injects raw bit errors according to the calibrated
// NAND reliability model, runs the on-die ODEAR engine (RP chunk
// check, RVS re-read) and hands the sensed codewords to the
// controller side, which restores the layout, decodes and
// descrambles. Every path of Figs. 8, 9, 15 and 16 is exercised on
// actual data.
package chip

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/ldpc"
	"repro/internal/nand"
	"repro/internal/odear"
)

// Config assembles a functional chip.
type Config struct {
	// Planes, BlocksPerPlane, PagesPerBlock fix the address space.
	Planes, BlocksPerPlane, PagesPerBlock int
	// PageBytes is the user data per page; it must be a multiple of
	// the code's data size (K/8 bytes), one codeword per chunk.
	PageBytes int
	// Code is the QC-LDPC code shared by the chip's RP and the
	// controller's decoder.
	Code *ldpc.Code
	// Model supplies the reliability physics for error injection.
	Model *nand.Model
	// ODEAR enables the on-die engine (a RiF-enabled chip); when
	// false the chip behaves conventionally.
	ODEAR bool
	// Seed drives error injection.
	Seed uint64
}

// DefaultConfig returns a small RiF-enabled chip whose code keeps the
// paper's 4x36 block shape (use ldpc.PaperCirculant for full-size
// 4-KiB codewords).
func DefaultConfig() Config {
	code := ldpc.NewCode(4, 36, 256, 7)
	return Config{
		Planes:         4,
		BlocksPerPlane: 8,
		PagesPerBlock:  16,
		PageBytes:      4 * code.K() / 8, // 4 codewords per page
		Code:           code,
		Model:          nand.NewDefaultModel(1),
		ODEAR:          true,
		Seed:           1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Planes <= 0 || c.BlocksPerPlane <= 0 || c.PagesPerBlock <= 0:
		return fmt.Errorf("chip: bad geometry %d/%d/%d", c.Planes, c.BlocksPerPlane, c.PagesPerBlock)
	case c.Code == nil:
		return fmt.Errorf("chip: nil code")
	case c.Model == nil:
		return fmt.Errorf("chip: nil reliability model")
	case c.PageBytes <= 0 || c.Code.K()%8 != 0 || c.PageBytes%(c.Code.K()/8) != 0:
		return fmt.Errorf("chip: page bytes %d not a multiple of codeword data %d", c.PageBytes, c.Code.K()/8)
	}
	return nil
}

// PageAddr locates one page on the chip.
type PageAddr struct {
	Plane, Block, Page int
}

// Chip is a functional RiF-enabled flash die. Not safe for concurrent
// use.
type Chip struct {
	cfg        Config
	randomizer *nand.Randomizer
	rp         *odear.RP
	rng        *rand.Rand
	// pages stores the programmed (rearranged) codewords, sparse.
	pages map[PageAddr]*storedPage
	// Status register: set by the last read (Fig. 9's ready flag and
	// the retry indication).
	lastRetried   bool
	lastPredicted bool
}

type storedPage struct {
	codewords []ldpc.Bits // rearranged layout, as the die stores them
}

// New builds a chip.
func New(cfg Config) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Chip{
		cfg:        cfg,
		randomizer: nand.NewRandomizer(cfg.Seed ^ 0x5ca1ab1e),
		rp:         odear.NewRP(cfg.Code, nand.ECCCapabilityRBER, true),
		rng:        rand.New(rand.NewPCG(cfg.Seed, 0xd1e)),
		pages:      make(map[PageAddr]*storedPage),
	}, nil
}

// ppn flattens an address for the randomizer seed.
func (c *Chip) ppn(a PageAddr) int64 {
	return int64((a.Plane*c.cfg.BlocksPerPlane+a.Block)*c.cfg.PagesPerBlock + a.Page)
}

func (c *Chip) checkAddr(a PageAddr) error {
	if a.Plane < 0 || a.Plane >= c.cfg.Planes ||
		a.Block < 0 || a.Block >= c.cfg.BlocksPerPlane ||
		a.Page < 0 || a.Page >= c.cfg.PagesPerBlock {
		return fmt.Errorf("chip: address %+v out of range", a)
	}
	return nil
}

// Program writes user data to a page: scramble → LDPC encode per
// codeword → rearrange (§V-B) → store. This is the controller+die
// write path of the paper.
func (c *Chip) Program(a PageAddr, data []byte) error {
	if err := c.checkAddr(a); err != nil {
		return err
	}
	if len(data) != c.cfg.PageBytes {
		return fmt.Errorf("chip: program %d bytes, want %d", len(data), c.cfg.PageBytes)
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	c.randomizer.Scramble(buf, c.ppn(a))

	kBytes := c.cfg.Code.K() / 8
	sp := &storedPage{}
	for off := 0; off < len(buf); off += kBytes {
		dataBits := bytesToBits(buf[off : off+kBytes])
		cw := c.cfg.Code.Encode(dataBits)
		sp.codewords = append(sp.codewords, c.cfg.Code.Rearrange(cw))
	}
	c.pages[a] = sp
	return nil
}

// Condition is the operating state under which a read happens.
type Condition struct {
	PECycles      int
	RetentionDays float64
	Reads         int
}

// ReadResult is what crosses the channel to the controller.
type ReadResult struct {
	// Codewords are the sensed (noisy, rearranged) codewords.
	Codewords []ldpc.Bits
	// Retried reports whether the ODEAR engine re-read the page
	// internally before transfer.
	Retried bool
	// Predicted reports RP's verdict on the first sense (true =
	// predicted uncorrectable).
	Predicted bool
	// Senses counts array sense operations (1, or 2 after an
	// internal retry) — the tR cost of the read.
	Senses int
}

// Read senses a page under the condition. On a RiF-enabled chip the
// ODEAR engine checks the first 4-KiB chunk's pruned syndrome weight
// (the chunk-based prediction of §V-A1); if the page is predicted
// uncorrectable, RVS re-reads it at near-optimal voltages and only
// the re-read data is returned (Fig. 9's flow).
func (c *Chip) Read(a PageAddr, cond Condition) (*ReadResult, error) {
	if err := c.checkAddr(a); err != nil {
		return nil, err
	}
	sp, ok := c.pages[a]
	if !ok {
		return nil, fmt.Errorf("chip: read of unwritten page %+v", a)
	}
	pt := nand.PageTypeOf(a.Page)
	blockID := a.Plane*c.cfg.BlocksPerPlane + a.Block

	sense := func(mode nand.VrefMode) []ldpc.Bits {
		pageRBER := c.cfg.Model.PageRBER(blockID, pt, cond.PECycles, cond.RetentionDays, int64(cond.Reads), mode)
		out := make([]ldpc.Bits, len(sp.codewords))
		for i, cw := range sp.codewords {
			r := c.cfg.Model.ChunkRBER(pageRBER, uint64(c.ppn(a)), i, len(sp.codewords))
			out[i] = ldpc.FlipRandom(cw, r, c.rng)
		}
		return out
	}

	res := &ReadResult{Codewords: sense(nand.DefaultVref), Senses: 1}
	if c.cfg.ODEAR {
		// RP checks only the first chunk of the page buffer.
		res.Predicted = c.rp.PredictRearranged(res.Codewords[0])
		if res.Predicted {
			// RVS: internal Swift-Read re-read at near-optimal VREF.
			res.Codewords = sense(nand.OptimalVref)
			res.Retried = true
			res.Senses++
		}
	}
	c.lastRetried = res.Retried
	c.lastPredicted = res.Predicted
	return res, nil
}

// ReadConventionalRetry models the off-chip retry a conventional
// controller issues after a decode failure: a fresh sense at the
// near-optimal voltages.
func (c *Chip) ReadConventionalRetry(a PageAddr, cond Condition) (*ReadResult, error) {
	if err := c.checkAddr(a); err != nil {
		return nil, err
	}
	sp, ok := c.pages[a]
	if !ok {
		return nil, fmt.Errorf("chip: retry of unwritten page %+v", a)
	}
	pt := nand.PageTypeOf(a.Page)
	blockID := a.Plane*c.cfg.BlocksPerPlane + a.Block
	pageRBER := c.cfg.Model.PageRBER(blockID, pt, cond.PECycles, cond.RetentionDays, int64(cond.Reads), nand.OptimalVref)
	out := make([]ldpc.Bits, len(sp.codewords))
	for i, cw := range sp.codewords {
		r := c.cfg.Model.ChunkRBER(pageRBER, uint64(c.ppn(a)), i, len(sp.codewords))
		out[i] = ldpc.FlipRandom(cw, r, c.rng)
	}
	return &ReadResult{Codewords: out, Senses: 1}, nil
}

// LastStatus reports the chip's status register after the most
// recent read: whether RP flagged the page and whether RVS re-read it.
func (c *Chip) LastStatus() (predicted, retried bool) {
	return c.lastPredicted, c.lastRetried
}

// bytesToBits packs bytes LSB-first into a Bits vector.
func bytesToBits(b []byte) ldpc.Bits {
	out := ldpc.NewBits(len(b) * 8)
	for i, by := range b {
		for j := 0; j < 8; j++ {
			if by&(1<<j) != 0 {
				out.Set(i*8+j, true)
			}
		}
	}
	return out
}

// bitsToBytes is the inverse of bytesToBits.
func bitsToBytes(bits ldpc.Bits) []byte {
	out := make([]byte, bits.Len()/8)
	for i := range out {
		var by byte
		for j := 0; j < 8; j++ {
			if bits.Get(i*8 + j) {
				by |= 1 << j
			}
		}
		out[i] = by
	}
	return out
}
