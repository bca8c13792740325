package service

import (
	"fmt"

	"repro/internal/snapshot"
)

// Section types of a pipeline checkpoint. secCursor is written by the Link
// (ingest position), everything else by the Pipeline. Version 1 also wrote
// types 3 (the open interval's rate bins) and 5 (its flow tables); they are
// retired, not reused.
const (
	secMeta   = 1 // format version + config fingerprint
	secState  = 2 // open interval, carried fit/prediction
	secMeans  = 4 // sliding window of interval means
	secCursor = 6 // ingest cursor (owned by the Link)
)

// ckptVersion guards the section payload layout; bump on change.
const ckptVersion = 2

// Snapshot captures the pipeline's state at the last interval boundary as
// checkpoint sections: the open interval's index, the anomaly band and the
// prediction carried into it, and the window of interval means. Nothing the
// open interval has measured so far is included, so the matching resume
// point is the open interval's first packet, whatever AddBlock calls have
// been made since the boundary.
func (p *Pipeline) Snapshot() []snapshot.Section {
	var meta snapshot.Enc
	meta.U64(ckptVersion)
	meta.F64(p.cfg.IntervalSec)
	meta.F64(p.cfg.Delta)
	meta.I64(int64(p.cfg.Window))
	meta.F64(p.cfg.Timeout)

	var st snapshot.Enc
	st.I64(int64(p.clock.Index()))
	st.F64(p.detMu)
	st.F64(p.detSigma)
	st.F64(p.predNext)
	st.Bool(p.predHas)

	var means snapshot.Enc
	means.F64s(p.hist)

	return []snapshot.Section{
		{Type: secMeta, Data: meta.Bytes()},
		{Type: secState, Data: st.Bytes()},
		{Type: secMeans, Data: means.Bytes()},
	}
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
// captured by Snapshot, positioned at the start of the checkpoint's open
// interval: feed it from that interval's first packet. The checkpoint's
// config fingerprint must match the pipeline's configuration — an operator
// who changed the interval geometry gets a tagged error (start fresh),
// never silently mixed state. On any error the pipeline is left freshly
// reset.
func (p *Pipeline) Restore(secs []snapshot.Section) error {
	p.resetAll()
	meta := snapshot.NewDec(sectionByType(secs, secMeta))
	if v := meta.U64(); v != ckptVersion {
		return fmt.Errorf("service: checkpoint version %d, want %d: %w", v, ckptVersion, snapshot.ErrCorrupt)
	}
	mismatch := func(what string) error {
		return fmt.Errorf("service: checkpoint %s does not match the running configuration", what)
	}
	interval, delta, window, timeout := meta.F64(), meta.F64(), meta.I64(), meta.F64()
	if meta.Err() != nil {
		return fmt.Errorf("service: checkpoint meta: %w", meta.Err())
	}
	switch {
	case interval != p.cfg.IntervalSec:
		return mismatch("interval")
	case delta != p.cfg.Delta:
		return mismatch("delta")
	case window != int64(p.cfg.Window):
		return mismatch("window")
	case timeout != p.cfg.Timeout:
		return mismatch("timeout")
	}

	st := snapshot.NewDec(sectionByType(secs, secState))
	cur := st.I64()
	detMu, detSigma := st.F64(), st.F64()
	predNext := st.F64()
	predHas := st.Bool()
	if st.Err() != nil || cur < 0 {
		return fmt.Errorf("service: checkpoint state section invalid: %w", snapshot.ErrCorrupt)
	}

	means := snapshot.NewDec(sectionByType(secs, secMeans))
	meanVals := means.F64s()
	if means.Err() != nil {
		return fmt.Errorf("service: checkpoint means section: %w", means.Err())
	}
	if len(meanVals) > p.cfg.Window {
		return fmt.Errorf("service: checkpoint holds %d interval means, more than the window of %d: %w", len(meanVals), p.cfg.Window, snapshot.ErrCorrupt)
	}

	p.hist = append(p.hist, meanVals...)
	p.clock.ResumeAt(int(cur))
	p.detMu, p.detSigma = detMu, detSigma
	p.predNext, p.predHas = predNext, predHas
	return nil
}

// resetAll returns the pipeline to its fresh state.
func (p *Pipeline) resetAll() {
	p.meter.Reset()
	p.hist = p.hist[:0]
	p.clock.ResumeAt(0)
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
