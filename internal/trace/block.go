package trace

import (
	"sync"
	"sync/atomic"
)

// Block is a struct-of-arrays batch of packet records: the batch-columnar
// unit the measurement pipeline moves packets in. Parallel columns hold each
// packet's timestamp, wire length, and the two packed header words of
// netpkt.Packed — so flow-key derivation, rate binning and interval
// splitting are tight loops over plain integer/float columns instead of
// per-record virtual calls over 44-byte headers. The packing is lossless:
// netpkt.HeaderFromPacked reconstructs the exact header an Append of
// Header.Packed stored.
//
// Invariant: all four columns always have equal length.
type Block struct {
	// Times holds packet timestamps in seconds since the stream origin.
	Times []float64
	// Sizes holds wire lengths in bytes (the IPv4 TotalLen).
	Sizes []uint16
	// Srcs holds the packed (src IP, src port, protocol) column.
	Srcs []uint64
	// Dsts holds the packed (dst IP, dst port, TTL) column.
	Dsts []uint64
}

// BlockSize is the default capacity blocks travel at: large enough that
// per-block costs (channel handoff, key-column derivation setup) amortise to
// noise per packet, small enough that a block plus its derived key columns
// stays cache-resident.
const BlockSize = 256

// Len returns the number of packets in the block.
func (b *Block) Len() int { return len(b.Times) }

// Reset empties the block, keeping column storage.
func (b *Block) Reset() {
	b.Times = b.Times[:0]
	b.Sizes = b.Sizes[:0]
	b.Srcs = b.Srcs[:0]
	b.Dsts = b.Dsts[:0]
}

// Append adds one packet from its packed representation.
func (b *Block) Append(t float64, size uint16, src, dst uint64) {
	b.Times = append(b.Times, t)
	b.Sizes = append(b.Sizes, size)
	b.Srcs = append(b.Srcs, src)
	b.Dsts = append(b.Dsts, dst)
}

// AppendRebased appends src's packets [lo, hi) with their times shifted by
// -offset (the interval-local rebasing of the partitioner, done during the
// copy it must make anyway).
func (b *Block) AppendRebased(src *Block, lo, hi int, offset float64) {
	n := len(b.Times)
	b.Times = append(b.Times, src.Times[lo:hi]...)
	if offset != 0 {
		for i := n; i < len(b.Times); i++ {
			b.Times[i] -= offset
		}
	}
	b.Sizes = append(b.Sizes, src.Sizes[lo:hi]...)
	b.Srcs = append(b.Srcs, src.Srcs[lo:hi]...)
	b.Dsts = append(b.Dsts, src.Dsts[lo:hi]...)
}

// Slice returns a view over packets [lo, hi) sharing the block's storage.
func (b *Block) Slice(lo, hi int) Block {
	return Block{
		Times: b.Times[lo:hi],
		Sizes: b.Sizes[lo:hi],
		Srcs:  b.Srcs[lo:hi],
		Dsts:  b.Dsts[lo:hi],
	}
}

// blockPool recycles blocks once their consumer has copied or measured the
// packets, bounding a pipeline's block allocations to the in-flight window
// instead of the stream length.
var blockPool = sync.Pool{}

// liveBlocks counts blocks taken from GetBlock and not yet returned through
// PutBlock — the runtime complement of the static poolcheck analyzer. The
// chaos suite snapshots it around a pipeline run: any unwind path (error,
// cancellation, panic recovery) that skips a PutBlock shows up as a nonzero
// delta. One atomic add per block (256 packets) is noise on the hot path.
var liveBlocks atomic.Int64

// LiveBlocks returns the number of pool blocks currently checked out (taken
// by GetBlock, not yet handed to PutBlock). With no pipeline in flight it
// must be back at its pre-run value; leak checks assert exactly that.
func LiveBlocks() int64 { return liveBlocks.Load() }

// GetBlock returns an empty block with BlockSize column capacity, recycled
// when possible.
func GetBlock() *Block {
	liveBlocks.Add(1)
	if b, _ := blockPool.Get().(*Block); b != nil {
		b.Reset()
		return b
	}
	return &Block{
		Times: make([]float64, 0, BlockSize),
		Sizes: make([]uint16, 0, BlockSize),
		Srcs:  make([]uint64, 0, BlockSize),
		Dsts:  make([]uint64, 0, BlockSize),
	}
}

// PutBlock returns a drained block to the pool once no consumer can touch
// its columns again. Safe for any block: only usefully-sized ones are kept.
func PutBlock(b *Block) {
	if b == nil {
		return
	}
	liveBlocks.Add(-1)
	if cap(b.Times) < BlockSize {
		return
	}
	blockPool.Put(b)
}

// BlockCost returns the approximate resident bytes of one pooled block whose
// columns hold up to n records — the unit flowd's ingest budget charges
// for a queued block. Pool blocks never shrink below BlockSize capacity,
// so smaller n still costs a full block; the constant covers the four slice
// headers and the Block itself.
func BlockCost(n int) int64 {
	if n < BlockSize {
		n = BlockSize
	}
	// 8 (Times) + 2 (Sizes) + 8 (Srcs) + 8 (Dsts) bytes per record.
	return int64(n)*26 + 128
}
