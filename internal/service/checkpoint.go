package service

import (
	"fmt"

	"repro/internal/flow"
	"repro/internal/snapshot"
	"repro/internal/timeseries"
)

// Section types of a pipeline checkpoint. secCursor is written by the Link
// (ingest position), everything else by the Pipeline.
const (
	secMeta   = 1 // format version + config fingerprint
	secState  = 2 // interval cursor, stream clock, carried fit/prediction
	secBinner = 3 // current interval's rate bins
	secMeans  = 4 // sliding window of interval means
	secAsm    = 5 // per-definition assembler states
	secCursor = 6 // ingest cursor (owned by the Link)
)

// ckptVersion guards the section payload layout; bump on change.
const ckptVersion = 1

// Snapshot captures the pipeline's complete resumable state as checkpoint
// sections. Call it between AddBlock calls (the state is block-consistent,
// not packet-consistent).
func (p *Pipeline) Snapshot() []snapshot.Section {
	var meta snapshot.Enc
	meta.U64(ckptVersion)
	meta.F64(p.cfg.IntervalSec)
	meta.F64(p.cfg.Delta)
	meta.I64(int64(p.cfg.Window))
	meta.F64(p.cfg.Timeout)
	meta.F64(p.cfg.Z)
	meta.I64(int64(p.cfg.MinRun))
	meta.I64(int64(p.cfg.PredictOrder))
	meta.I64(int64(len(p.cfg.Defs)))
	for _, d := range p.cfg.Defs {
		meta.I64(int64(d))
	}

	var st snapshot.Enc
	cs := p.clock.State()
	st.I64(int64(cs.Cur))
	st.Bool(cs.Started)
	st.F64(cs.LastTime)
	st.I64(p.pktsCur)
	st.F64(p.detMu)
	st.F64(p.detSigma)
	st.F64(p.predNext)
	st.Bool(p.predHas)

	bs := p.bin.State()
	var bin snapshot.Enc
	bin.F64(bs.Duration)
	bin.F64(bs.Delta)
	bin.F64s(bs.Bits)

	var means snapshot.Enc
	means.F64s(p.means.Values())

	var asm snapshot.Enc
	states := p.meas.SnapshotStates()
	asm.I64(int64(len(states)))
	for _, a := range states {
		encodeAssembler(&asm, a)
	}

	return []snapshot.Section{
		{Type: secMeta, Data: meta.Bytes()},
		{Type: secState, Data: st.Bytes()},
		{Type: secBinner, Data: bin.Bytes()},
		{Type: secMeans, Data: means.Bytes()},
		{Type: secAsm, Data: asm.Bytes()},
	}
}

func encodeAssembler(e *snapshot.Enc, a flow.AssemblerState) {
	e.Bool(a.Started)
	e.F64(a.LastTime)
	e.I64(int64(len(a.Entries)))
	for _, en := range a.Entries {
		e.U64(en.KeyA)
		e.U64(en.KeyB)
		e.F64(en.Start)
		e.F64(en.Last)
		e.I64(en.Bytes)
		e.I64(en.Packets)
	}
	e.I64(int64(len(a.Flows)))
	for _, f := range a.Flows {
		e.F64(f.Start)
		e.F64(f.End)
		e.I64(f.Bytes)
		e.I64(int64(f.Packets))
	}
	e.I64(int64(len(a.Discarded)))
	for _, d := range a.Discarded {
		e.F64(d.Time)
		e.F64(d.Bits)
	}
}

func decodeAssembler(d *snapshot.Dec) flow.AssemblerState {
	var a flow.AssemblerState
	a.Started = d.Bool()
	a.LastTime = d.F64()
	n := d.I64()
	if d.Err() != nil || n < 0 || n > int64(d.Rest()) {
		return a
	}
	for i := int64(0); i < n && d.Err() == nil; i++ {
		a.Entries = append(a.Entries, flow.FlowEntry{
			KeyA: d.U64(), KeyB: d.U64(),
			Start: d.F64(), Last: d.F64(),
			Bytes: d.I64(), Packets: d.I64(),
		})
	}
	n = d.I64()
	if d.Err() != nil || n < 0 || n > int64(d.Rest()) {
		return a
	}
	for i := int64(0); i < n && d.Err() == nil; i++ {
		a.Flows = append(a.Flows, flow.Flow{
			Start: d.F64(), End: d.F64(),
			Bytes: d.I64(), Packets: int(d.I64()),
		})
	}
	n = d.I64()
	if d.Err() != nil || n < 0 || n > int64(d.Rest()) {
		return a
	}
	for i := int64(0); i < n && d.Err() == nil; i++ {
		a.Discarded = append(a.Discarded, flow.DiscardedPacket{Time: d.F64(), Bits: d.F64()})
	}
	return a
}

// sectionByType finds one section, nil when absent.
func sectionByType(secs []snapshot.Section, typ uint32) []byte {
	for _, s := range secs {
		if s.Type == typ {
			return s.Data
		}
	}
	return nil
}

// Restore replaces the pipeline's state with a checkpoint previously
// captured by Snapshot. The checkpoint's config fingerprint must match the
// pipeline's configuration — an operator who changed the interval geometry
// gets a tagged error (start fresh), never silently mixed state. On any
// error the pipeline is left freshly reset.
func (p *Pipeline) Restore(secs []snapshot.Section) error {
	fail := func(err error) error {
		p.resetAll()
		return err
	}
	meta := snapshot.NewDec(sectionByType(secs, secMeta))
	if v := meta.U64(); v != ckptVersion {
		return fail(fmt.Errorf("service: checkpoint version %d, want %d: %w", v, ckptVersion, snapshot.ErrCorrupt))
	}
	mismatch := func(what string) error {
		return fail(fmt.Errorf("service: checkpoint %s does not match the running configuration", what))
	}
	if meta.F64() != p.cfg.IntervalSec {
		return mismatch("interval")
	}
	if meta.F64() != p.cfg.Delta {
		return mismatch("delta")
	}
	if meta.I64() != int64(p.cfg.Window) {
		return mismatch("window")
	}
	if meta.F64() != p.cfg.Timeout {
		return mismatch("timeout")
	}
	if meta.F64() != p.cfg.Z {
		return mismatch("z")
	}
	if meta.I64() != int64(p.cfg.MinRun) {
		return mismatch("minrun")
	}
	if meta.I64() != int64(p.cfg.PredictOrder) {
		return mismatch("predictor order")
	}
	nd := meta.I64()
	if meta.Err() != nil {
		return fail(fmt.Errorf("service: checkpoint meta: %w", meta.Err()))
	}
	if nd != int64(len(p.cfg.Defs)) {
		return mismatch("definition count")
	}
	for _, def := range p.cfg.Defs {
		if meta.I64() != int64(def) {
			return mismatch("definitions")
		}
	}
	if meta.Err() != nil {
		return fail(fmt.Errorf("service: checkpoint meta: %w", meta.Err()))
	}

	st := snapshot.NewDec(sectionByType(secs, secState))
	cur := st.I64()
	clock := flow.ClockState{Cur: int(cur), Started: st.Bool(), LastTime: st.F64()}
	pktsCur := st.I64()
	detMu, detSigma := st.F64(), st.F64()
	predNext := st.F64()
	predHas := st.Bool()
	if st.Err() != nil || cur < 0 || pktsCur < 0 {
		return fail(fmt.Errorf("service: checkpoint state section invalid: %w", snapshot.ErrCorrupt))
	}

	bin := snapshot.NewDec(sectionByType(secs, secBinner))
	var bst struct{ dur, delta float64 }
	bst.dur, bst.delta = bin.F64(), bin.F64()
	bits := bin.F64s()
	if bin.Err() != nil {
		return fail(fmt.Errorf("service: checkpoint binner section: %w", bin.Err()))
	}

	means := snapshot.NewDec(sectionByType(secs, secMeans))
	meanVals := means.F64s()
	if means.Err() != nil {
		return fail(fmt.Errorf("service: checkpoint means section: %w", means.Err()))
	}

	asm := snapshot.NewDec(sectionByType(secs, secAsm))
	na := asm.I64()
	if asm.Err() != nil || na != int64(len(p.cfg.Defs)) {
		return fail(fmt.Errorf("service: checkpoint has %d assembler states, want %d: %w", na, len(p.cfg.Defs), snapshot.ErrCorrupt))
	}
	states := make([]flow.AssemblerState, na)
	for i := range states {
		states[i] = decodeAssembler(asm)
	}
	if asm.Err() != nil {
		return fail(fmt.Errorf("service: checkpoint assembler section: %w", asm.Err()))
	}

	// All sections parsed — apply.
	if err := p.bin.RestoreState(timeseries.BinnerState{Duration: bst.dur, Delta: bst.delta, Bits: bits}); err != nil {
		return fail(fmt.Errorf("service: %w", err))
	}
	if err := p.means.RestoreValues(meanVals); err != nil {
		return fail(fmt.Errorf("service: %w", err))
	}
	if err := p.meas.RestoreStates(states); err != nil {
		return fail(err)
	}
	if err := p.clock.Restore(clock); err != nil {
		return fail(fmt.Errorf("service: checkpoint state section: %w: %w", err, snapshot.ErrCorrupt))
	}
	p.pktsCur = pktsCur
	p.detMu, p.detSigma = detMu, detSigma
	p.predNext, p.predHas = predNext, predHas
	return nil
}

// resetAll returns the pipeline to its fresh state.
func (p *Pipeline) resetAll() {
	p.meas.Reset()
	p.bin.Reinit(p.cfg.IntervalSec, p.cfg.Delta)
	p.means.RestoreValues(nil)
	p.clock.Restore(flow.ClockState{})
	p.pktsCur = 0
	p.detMu, p.detSigma = 0, 0
	p.predNext, p.predHas = 0, false
}

// EncodeCursor builds the Link's ingest-cursor section.
func EncodeCursor(c Cursor) snapshot.Section {
	var e snapshot.Enc
	e.I64(c.Epoch)
	e.I64(c.Packets)
	return snapshot.Section{Type: secCursor, Data: e.Bytes()}
}

// DecodeCursor reads the ingest-cursor section (zero cursor when absent).
func DecodeCursor(secs []snapshot.Section) (Cursor, error) {
	data := sectionByType(secs, secCursor)
	if data == nil {
		return Cursor{}, nil
	}
	d := snapshot.NewDec(data)
	c := Cursor{Epoch: d.I64(), Packets: d.I64()}
	if d.Err() != nil || c.Epoch < 0 || c.Packets < 0 {
		return Cursor{}, fmt.Errorf("service: checkpoint cursor invalid: %w", snapshot.ErrCorrupt)
	}
	return c, nil
}
