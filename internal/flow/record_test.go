package flow

import (
	"context"

	"repro/internal/netpkt"
	"repro/internal/trace"
)

// This file is the record-at-a-time face of the assembler, kept as the
// per-packet reference the block paths are checked against: one header
// decoded, keyed and hashed per packet, with no column pass.

// Add consumes one packet record. Packets must arrive in non-decreasing
// time order.
func (a *Assembler) Add(rec trace.Record) error {
	if rec.Time < a.lastTime {
		return errOutOfOrder(rec.Time, a.lastTime)
	}
	a.lastTime = rec.Time
	h, ka, kb := a.key(rec.Hdr.Packed())
	a.addPacked(rec.Time, rec.Hdr.TotalLen, h, ka, kb)
	return nil
}

// key computes the (hash, keyA, keyB) triple of one packed packet under
// the assembler's definition — the scalar counterpart of AddBlock's column
// pass, kept textually tiny so both agree.
func (a *Assembler) key(src, dst uint64) (h, ka, kb uint64) {
	ka, kb = src&a.am, dst&a.bm
	return hashKey(ka, kb), ka, kb
}

// measureRecords groups recs (time-ordered) into flows under def with the
// given timeout, one Add per record.
func measureRecords(recs []trace.Record, def Definition, timeout float64) (Result, error) {
	a, err := NewAssembler(def, timeout)
	if err != nil {
		return Result{}, err
	}
	for i := range recs {
		if err := a.Add(recs[i]); err != nil {
			return Result{}, err
		}
	}
	return a.Flush(), nil
}

// generateRecords synthesises cfg's trace serially and unpacks its blocks
// into records.
func generateRecords(cfg trace.Config) ([]trace.Record, trace.Summary, error) {
	var recs []trace.Record
	sum, err := trace.StreamParallelBlocksCtx(context.Background(), cfg, 1, func(blk *trace.Block) error {
		for i, t := range blk.Times {
			recs = append(recs, trace.Record{Time: t, Hdr: netpkt.HeaderFromPacked(blk.Srcs[i], blk.Dsts[i], blk.Sizes[i])})
		}
		return nil
	})
	return recs, sum, err
}
