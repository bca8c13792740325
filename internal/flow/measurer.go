package flow

import (
	"fmt"
	"slices"

	"repro/internal/trace"
)

// Measurer measures one packet stream under several flow definitions at
// once, with one table probe per packet: only the finest definition (the
// 5-tuple when present, else the longest prefix) assembles packets. Every
// coarser definition is a destination prefix, whose flows are exactly the
// finest definition's flows under each prefix merged across gaps of at
// most the timeout, so Flush builds them from the finest store, one merge
// step per finer flow (Assembler.merge), before any store is reordered.
type Measurer struct {
	asm  []*Assembler
	fine int      // index of the finest definition: the one fed packets
	out  []Result // Flush's reused result slice
}

// NewMeasurer builds a measurer over the given definitions, each named at
// most once, with the given flow timeout (use DefaultTimeout for the
// paper's 60 s).
func NewMeasurer(defs []Definition, timeout float64) (*Measurer, error) {
	if len(defs) == 0 {
		return nil, fmt.Errorf("flow: measurer needs at least one definition")
	}
	m := &Measurer{
		asm: make([]*Assembler, len(defs)),
		out: make([]Result, len(defs)),
	}
	for i, def := range defs {
		a, err := NewAssembler(def, timeout)
		if err != nil {
			return nil, err
		}
		if slices.Contains(defs[:i], def) {
			return nil, fmt.Errorf("flow: definition %v requested twice", def)
		}
		// The definitions are declared finest first.
		if def < defs[m.fine] {
			m.fine = i
		}
		m.asm[i] = a
	}
	// Only a coarser definition reads the finest store's address column.
	m.asm[m.fine].keepAddr = len(defs) > 1
	return m, nil
}

// Reset re-arms every assembler with empty flow state (the paper's interval
// boundary split), keeping all table, store and column storage.
func (m *Measurer) Reset() {
	for _, a := range m.asm {
		a.Reset()
	}
}

// AddBlock consumes one SoA block through the finest definition's
// assembler. Packets must arrive in non-decreasing time order across
// AddBlock calls. The block is only read, so borrowed (read-only) store
// blocks can feed it.
func (m *Measurer) AddBlock(blk *trace.Block) error {
	return m.asm[m.fine].AddBlock(blk)
}

// Flush finalises all in-progress flows and returns one Result per
// definition, index-aligned with the defs the measurer was built with, in
// Assembler.Flush's order: each coarser definition first merges the finest
// definition's flows, in their admission order, then every assembler
// orders its store. The measurer can keep consuming packets afterwards
// (split flows restart from the flush point). The slice and the results
// are the measurer's own storage, valid until the next Flush or Reset.
func (m *Measurer) Flush() []Result {
	fine := m.asm[m.fine]
	for i, a := range m.asm {
		if i != m.fine {
			a.merge(fine.done, fine.addr)
		}
	}
	for i, a := range m.asm {
		m.out[i] = a.Flush()
	}
	return m.out
}

// ActiveFlows returns the in-progress flow count behind the i-th
// definition — the occupancy a service's memory bound watches. Coarser
// definitions hold no table between flushes, so for every i it is the
// finest definition's table occupancy: the flow state the measurer keeps.
func (m *Measurer) ActiveFlows(i int) int { return m.asm[m.fine].ActiveFlows() }
