// Cross-process suite sharding. A shard runner (Options.ShardIndex/
// ShardCount) measures a disjoint subset of the suite's traces; ExportShard
// persists its entries of the result table — per-trace summaries, every
// scatter point, and the reference-interval flow results when the shard
// owns trace 0 — as one CRC-framed file, and MergeShards reassembles a full
// runner from the shard files of all N processes. The merged runner renders
// byte-identical output to a single-process pass: each point is decoded
// into its own (trace, interval, definition) slot of the same table, and
// everything a shard cannot know locally (trace names, target rates, link
// capacity) is re-derived from the suite specs instead of trusted from the
// file.
//
// Rendering is what forces a merge step: the scatter figures draw aggregate
// model lines across *all* traces, so concatenating per-shard rendered
// output could never equal the single-process pass — the raw measurements
// have to be reunited first.
package experiments

import (
	"bytes"
	"fmt"
	"os"
	"sort"

	"repro/internal/flow"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// shardMagic heads a shard export file; the trailing byte is the format
// version.
const shardMagic = "FLOWSHD\x01"

// shardFrame is the single frame type of a shard file.
const shardFrame = 1

func encodeResult(e *snapshot.Enc, res flow.Result) {
	e.U64(uint64(len(res.Flows)))
	for _, f := range res.Flows {
		e.F64(f.Start)
		e.F64(f.End)
		e.I64(f.Bytes)
		e.I64(int64(f.Packets))
	}
	e.U64(uint64(len(res.Discarded)))
	for _, d := range res.Discarded {
		e.F64(d.Time)
		e.F64(d.Bits)
	}
}

func decodeResult(d *snapshot.Dec) flow.Result {
	var res flow.Result
	nf := d.U64()
	if d.Err() != nil || nf > uint64(d.Rest()/32) {
		return res
	}
	for i := uint64(0); i < nf; i++ {
		res.Flows = append(res.Flows, flow.Flow{
			Start:   d.F64(),
			End:     d.F64(),
			Bytes:   d.I64(),
			Packets: int(d.I64()),
		})
	}
	nd := d.U64()
	if d.Err() != nil || nd > uint64(d.Rest()/16) {
		return res
	}
	for i := uint64(0); i < nd; i++ {
		res.Discarded = append(res.Discarded, flow.DiscardedPacket{Time: d.F64(), Bits: d.F64()})
	}
	return res
}

// ExportShard measures this runner's shard (if it has not already) and
// writes its share of the suite to path. The file carries only what the
// merging process cannot re-derive from the shared suite options.
func (r *Runner) ExportShard(path string) error {
	if err := r.measureSuite(); err != nil {
		return err
	}
	e := &snapshot.Enc{}
	e.U64(uint64(r.opts.ShardIndex))
	e.U64(uint64(r.opts.ShardCount))
	e.U64(uint64(len(r.specs)))
	// Suite fingerprint: a merge across mismatched geometries must fail
	// loudly, not produce a subtly wrong composite.
	e.F64(r.linkBps())
	e.F64(r.specs[0].IntervalSec)
	e.F64(r.opts.Delta)
	e.I64(r.opts.Suite.Seed)
	var owned []int
	for ti := range r.specs {
		if r.ownsTrace(ti) {
			owned = append(owned, ti)
		}
	}
	e.U64(uint64(len(owned)))
	for _, ti := range owned {
		tr := r.results[ti]
		e.U64(uint64(ti))
		sum := tr.summary
		e.I64(sum.Flows)
		e.I64(sum.Packets)
		e.I64(sum.Bytes)
		e.F64(sum.Duration)
		e.F64(sum.AvgRateBps)
		e.F64(sum.FlowRate)
		e.I64(sum.OnePktFlows)
		// Two per-trace slots of the file layout held shed interval and
		// record counts; the suite never sheds, so they are written as 0.
		e.I64(0)
		e.I64(0)
		n := 0
		for _, slots := range tr.stats {
			for _, s := range slots {
				if s != nil {
					n++
				}
			}
		}
		e.U64(uint64(n))
		for di := range suiteDefs {
			for _, slots := range tr.stats {
				if s := slots[di]; s != nil {
					encodePoint(e, di, s)
				}
			}
		}
		e.Bool(ti == 0)
		if ti == 0 {
			encodeResult(e, tr.ref[0])
			encodeResult(e, tr.ref[1])
		}
	}
	var buf bytes.Buffer
	buf.WriteString(shardMagic)
	if err := snapshot.WriteFrame(&buf, shardFrame, 0, e.Bytes()); err != nil {
		return fmt.Errorf("experiments: shard export: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("experiments: shard export: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("experiments: shard export: %w", err)
	}
	return nil
}

// encodePoint writes one scatter point measured under suiteDefs[di]. The
// trace's name, target rate and link capacity are not written: the merging
// runner re-derives them from its own suite.
func encodePoint(e *snapshot.Enc, di int, s *IntervalStat) {
	e.U64(uint64(s.Index))
	e.U64(uint64(di))
	e.I64(int64(s.FlowCount))
	e.I64(int64(s.Discarded))
	e.F64(s.MeasMean)
	e.F64(s.MeasVar)
	e.F64(s.MeasCoV)
	e.F64(s.Lambda)
	e.F64(s.MeanS)
	e.F64(s.MeanS2oD)
	e.F64(s.FittedBRaw)
	bs := make([]int, 0, len(s.ModelCoV))
	//repro:nondeterminism-ok keys are collected then sorted before any byte is encoded
	for b := range s.ModelCoV {
		bs = append(bs, b)
	}
	sort.Ints(bs)
	e.U64(uint64(len(bs)))
	for _, b := range bs {
		e.I64(int64(b))
		e.F64(s.ModelCoV[b])
	}
}

// shardData is one decoded shard file.
type shardData struct {
	shardCount int
	// traces holds the file's result-table entries by suite position (nil
	// for the traces the shard does not carry), every point already
	// labelled with its trace's name, target rate and link capacity.
	traces []*traceResult
}

// decodeShard decodes the shard file at path, which must match the suite
// geometry. Anything a well-formed export cannot hold — a trace or interval
// outside the suite, a table slot filled twice, trace 0 without the
// reference interval — is damage, and wraps snapshot.ErrCorrupt.
func decodeShard(path string, raw []byte, specs []trace.TraceSpec, link, delta float64, seed int64) (*shardData, error) {
	corrupt := func(format string, a ...any) error {
		return fmt.Errorf("experiments: %s %s: %w", path, fmt.Sprintf(format, a...), snapshot.ErrCorrupt)
	}
	if len(raw) < len(shardMagic) || string(raw[:len(shardMagic)]) != shardMagic {
		return nil, corrupt("is not a shard export")
	}
	typ, _, payload, _, err := snapshot.ReadFrameAt(raw, len(shardMagic))
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", path, err)
	}
	if typ != shardFrame {
		return nil, corrupt("holds frame type %d", typ)
	}
	d := snapshot.NewDec(payload)
	d.U64() // shard index (informational; coverage is checked per trace)
	sd := &shardData{shardCount: int(d.U64()), traces: make([]*traceResult, len(specs))}
	if n := d.U64(); int(n) != len(specs) {
		return nil, fmt.Errorf("experiments: %s measured a %d-trace suite, this one has %d", path, n, len(specs))
	}
	if l, iv, dl, sd2 := d.F64(), d.F64(), d.F64(), d.I64(); l != link || iv != specs[0].IntervalSec || dl != delta || sd2 != seed {
		return nil, fmt.Errorf("experiments: %s measured a different suite geometry (link %g, interval %g, delta %g, seed %d)", path, l, iv, dl, sd2)
	}
	nOwned := d.U64()
	for i := uint64(0); i < nOwned; i++ {
		ti := d.U64()
		switch {
		case d.Err() != nil:
			return nil, corrupt("truncated")
		case ti >= uint64(len(specs)):
			return nil, corrupt("carries trace index %d outside the %d-trace suite", ti, len(specs))
		case sd.traces[ti] != nil:
			return nil, corrupt("carries trace %d twice", ti)
		}
		spec := specs[ti]
		tr := newTraceResult(spec.Intervals)
		tr.summary = trace.Summary{
			Flows:       d.I64(),
			Packets:     d.I64(),
			Bytes:       d.I64(),
			Duration:    d.F64(),
			AvgRateBps:  d.F64(),
			FlowRate:    d.F64(),
			OnePktFlows: d.I64(),
		}
		// A shard that shed intervals is missing points: refuse it rather
		// than render a partial figure.
		if ivs, recs := d.I64(), d.I64(); ivs != 0 || recs != 0 {
			return nil, corrupt("reports trace %d shed %d intervals (%d records)", ti, ivs, recs)
		}
		nStats := d.U64()
		if d.Err() != nil || nStats > uint64(d.Rest()/96) {
			return nil, corrupt("truncated")
		}
		for j := uint64(0); j < nStats; j++ {
			idx, di := d.U64(), d.U64()
			switch {
			case d.Err() != nil:
				return nil, corrupt("truncated")
			case di >= uint64(len(suiteDefs)):
				return nil, corrupt("names unknown flow definition %d", di)
			case idx >= uint64(spec.Intervals):
				return nil, corrupt("carries a point at interval %d of %d-interval trace %s", idx, spec.Intervals, spec.Name)
			case tr.stats[idx][di] != nil:
				return nil, corrupt("carries interval %d of %s under %v twice", idx, spec.Name, suiteDefs[di])
			}
			s := &IntervalStat{Trace: spec.Name, TargetBps: spec.TargetBps, Index: int(idx), Def: suiteDefs[di], linkBps: link}
			s.FlowCount = int(d.I64())
			s.Discarded = int(d.I64())
			s.MeasMean = d.F64()
			s.MeasVar = d.F64()
			s.MeasCoV = d.F64()
			s.Lambda = d.F64()
			s.MeanS = d.F64()
			s.MeanS2oD = d.F64()
			s.FittedBRaw = d.F64()
			s.ModelCoV = map[int]float64{}
			nm := d.U64()
			if d.Err() != nil || nm > uint64(d.Rest()/16) {
				return nil, corrupt("truncated")
			}
			for k := uint64(0); k < nm; k++ {
				b := int(d.I64())
				s.ModelCoV[b] = d.F64()
			}
			tr.stats[idx][di] = s
		}
		if hasRef := d.Bool(); d.Err() == nil && hasRef != (ti == 0) {
			return nil, corrupt("sets trace %d's reference-interval flag to %v (trace 0 alone carries it)", ti, hasRef)
		}
		if ti == 0 {
			tr.ref[0] = decodeResult(d)
			tr.ref[1] = decodeResult(d)
		}
		sd.traces[ti] = tr
	}
	if d.Err() != nil {
		return nil, corrupt("truncated")
	}
	if d.Rest() != 0 {
		return nil, corrupt("has %d trailing bytes", d.Rest())
	}
	return sd, nil
}

// MergeShards loads shard export files into this (unmeasured) runner,
// reassembling the full suite measurement. The shards must jointly cover
// every trace exactly once and have been measured under this runner's suite
// geometry. After a successful merge the runner holds the very table a
// single-process pass would have filled, so every table and figure renders
// byte-identically to that pass.
func (r *Runner) MergeShards(paths ...string) error {
	if r.results != nil {
		return fmt.Errorf("experiments: runner already measured; merge needs a fresh runner")
	}
	if len(paths) == 0 {
		return fmt.Errorf("experiments: no shard files to merge")
	}
	results := make([]*traceResult, len(r.specs))
	shardCount := -1
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
		sd, err := decodeShard(path, raw, r.specs, r.linkBps(), r.opts.Delta, r.opts.Suite.Seed)
		if err != nil {
			return err
		}
		if shardCount == -1 {
			shardCount = sd.shardCount
		} else if sd.shardCount != shardCount {
			return fmt.Errorf("experiments: %s is a 1-of-%d shard, earlier files were 1-of-%d", path, sd.shardCount, shardCount)
		}
		for ti, tr := range sd.traces {
			if tr == nil {
				continue
			}
			if results[ti] != nil {
				return fmt.Errorf("experiments: trace %d (%s) appears in more than one shard", ti, r.specs[ti].Name)
			}
			results[ti] = tr
		}
	}
	for ti, tr := range results {
		if tr == nil {
			return fmt.Errorf("experiments: shards do not cover trace %d (%s)", ti, r.specs[ti].Name)
		}
	}
	r.results = results
	return nil
}
