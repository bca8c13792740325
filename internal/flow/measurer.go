package flow

import (
	"fmt"

	"repro/internal/netpkt"
	"repro/internal/trace"
)

// Measurer measures one packet stream under several flow definitions at
// once over shared key derivation: each block's per-definition key and hash
// columns are derived from the packed Src/Dst columns in vector passes —
// the 5-tuple in one pass over both columns, every prefix definition in one
// shared pass over the dst column — so adding a definition costs a mask and
// a mix per packet, never a re-extraction or a re-hash of the header.
type Measurer struct {
	defs    []Definition
	asm     []*Assembler
	prefixy []int    // indexes into defs of the prefix definitions
	drops   []uint64 // prefix low-bit masks, index-aligned with prefixy
	// Per-definition derived columns, index-aligned with the current block.
	hash [][]uint64
	keyA [][]uint64
	keyB [][]uint64
	out  []Result // Flush's reused result slice
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
		keyA: make([][]uint64, len(defs)),
		keyB: make([][]uint64, len(defs)),
		out:  make([]Result, len(defs)),
	}
	for i, def := range m.defs {
		a, err := NewAssembler(def, timeout)
		if err != nil {
			return nil, err
		}
		m.asm[i] = a
		if def != By5Tuple {
			drop, _ := prefixDrop(def)
			m.prefixy = append(m.prefixy, i)
			m.drops = append(m.drops, drop)
		}
	}
	return m, nil
}

// Reset re-arms every assembler with empty flow state (the paper's interval
// boundary split), keeping all table, slab and column storage.
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

// derive fills the per-definition key and hash columns for blk.
func (m *Measurer) derive(blk *trace.Block) {
	n := blk.Len()
	for di := range m.defs {
		growCols(m.hash, di, n)
		growCols(m.keyA, di, n)
		growCols(m.keyB, di, n)
	}
	for di, def := range m.defs {
		if def != By5Tuple {
			continue
		}
		ha, ka, kb := m.hash[di], m.keyA[di], m.keyB[di]
		for j := 0; j < n; j++ {
			a := blk.Srcs[j]
			b := blk.Dsts[j] &^ netpkt.PackedTTLMask
			ka[j] = a
			kb[j] = b
			ha[j] = hashKey(a, b)
		}
	}
	if len(m.prefixy) == 0 {
		return
	}
	// All prefix definitions come off the dst column in one shared pass.
	for _, di := range m.prefixy {
		clear(m.keyA[di])
	}
	for j := 0; j < n; j++ {
		ip := blk.Dsts[j] >> netpkt.PackedAddrShift
		for pi, di := range m.prefixy {
			kb := ip &^ m.drops[pi]
			m.keyB[di][j] = kb
			m.hash[di][j] = hashKey(0, kb)
		}
	}
}

// AddBlock consumes one SoA block: keys for every definition are derived
// once, then each assembler runs the block through its table. Packets must
// arrive in non-decreasing time order across AddBlock calls.
func (m *Measurer) AddBlock(blk *trace.Block) error {
	m.derive(blk)
	for di, a := range m.asm {
		if err := a.AddBlock(blk, m.hash[di], m.keyA[di], m.keyB[di]); err != nil {
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
