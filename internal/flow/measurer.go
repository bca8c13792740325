package flow

import (
	"fmt"

	"repro/internal/netpkt"
	"repro/internal/trace"
)

// Measurer measures one packet stream under several flow definitions at
// once over shared key derivation: each block's per-definition key and hash
// columns are derived from the packed Src/Dst columns in vector passes —
// the 5-tuple in one pass over both columns, each prefix definition in one
// pass over the dst column — so adding a definition costs a mask and a mix
// per packet, never a re-extraction or a re-hash of the header.
type Measurer struct {
	defs []Definition
	asm  []*Assembler
	// Per-definition derived columns, index-aligned with the current block.
	// The key's first word needs no column of its own: the 5-tuple's is
	// the block's Srcs column, read in place, and every prefix
	// definition's is zero, read from zeros.
	hash  [][]uint64
	keyB  [][]uint64
	zeros []uint64 // all zero; grows only when a longer block arrives
	out   []Result // Flush's reused result slice
}

// NewMeasurer builds a measurer over the given definitions with the given
// flow timeout (use DefaultTimeout for the paper's 60 s).
func NewMeasurer(defs []Definition, timeout float64) (*Measurer, error) {
	if len(defs) == 0 {
		return nil, fmt.Errorf("flow: measurer needs at least one definition")
	}
	m := &Measurer{
		defs: append([]Definition(nil), defs...),
		asm:  make([]*Assembler, len(defs)),
		hash: make([][]uint64, len(defs)),
		keyB: make([][]uint64, len(defs)),
		out:  make([]Result, len(defs)),
	}
	for i, def := range m.defs {
		a, err := NewAssembler(def, timeout)
		if err != nil {
			return nil, err
		}
		m.asm[i] = a
	}
	return m, nil
}

// Reset re-arms every assembler with empty flow state (the paper's interval
// boundary split), keeping all table, store and column storage.
func (m *Measurer) Reset() {
	for _, a := range m.asm {
		a.Reset()
	}
}

// growCols resizes the derived columns to n elements, reusing storage.
func growCols(cols [][]uint64, di, n int) {
	if cap(cols[di]) < n {
		cols[di] = make([]uint64, n)
	} else {
		cols[di] = cols[di][:n]
	}
}

// derive fills the per-definition hash and keyB columns for blk, one pass
// per definition: the block's columns stay in cache across them.
func (m *Measurer) derive(blk *trace.Block) {
	n := blk.Len()
	srcs, dsts := blk.Srcs[:n], blk.Dsts[:n]
	for di, def := range m.defs {
		growCols(m.hash, di, n)
		growCols(m.keyB, di, n)
		ha, kb := m.hash[di][:n], m.keyB[di][:n]
		if def == By5Tuple {
			for j, a := range srcs {
				b := dsts[j] &^ netpkt.PackedTTLMask
				kb[j] = b
				ha[j] = hashKey(a, b)
			}
			continue
		}
		if len(m.zeros) < n {
			m.zeros = make([]uint64, n)
		}
		drop, _ := prefixDrop(def)
		for j, d := range dsts {
			b := d >> netpkt.PackedAddrShift &^ drop
			kb[j] = b
			ha[j] = hashKey(0, b)
		}
	}
}

// AddBlock consumes one SoA block: keys for every definition are derived
// once, then each assembler runs the block through its table. Packets must
// arrive in non-decreasing time order across AddBlock calls. The block is
// only read, so borrowed (read-only) store blocks can feed it.
func (m *Measurer) AddBlock(blk *trace.Block) error {
	m.derive(blk)
	for di, a := range m.asm {
		keyA := blk.Srcs
		if m.defs[di] != By5Tuple {
			keyA = m.zeros
		}
		if err := a.AddBlock(blk, m.hash[di], keyA, m.keyB[di]); err != nil {
			return err
		}
	}
	return nil
}

// Flush finalises all in-progress flows and returns one Result per
// definition, index-aligned with the defs the measurer was built with, in
// Assembler.Flush's order. The measurer can keep consuming packets
// afterwards (split flows restart from the flush point). The slice and the
// results are the measurer's own storage, valid until the next Flush or
// Reset.
func (m *Measurer) Flush() []Result {
	for i, a := range m.asm {
		m.out[i] = a.Flush()
	}
	return m.out
}

// ActiveFlows returns the in-progress flow count of the i-th definition's
// assembler — the occupancy a service's memory bound watches.
func (m *Measurer) ActiveFlows(i int) int { return m.asm[i].ActiveFlows() }
