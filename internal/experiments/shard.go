// Cross-process suite sharding. A shard runner (Options.ShardIndex/
// ShardCount) measures a disjoint subset of the suite's traces; ExportShard
// persists its measurements — per-trace summaries, shed accounting, every
// scatter point, and the reference-interval flow results when the shard owns
// trace 0 — as one CRC-framed file, and MergeShards reassembles a full
// runner from the shard files of all N processes. The merged runner renders
// byte-identical output to a single-process pass: the measurement slots are
// refilled in exactly the order measureSuite merges them, and everything a
// shard cannot know locally (trace names, target rates, link capacity) is
// re-derived from the suite specs instead of trusted from the file.
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

// defIndex maps a flow definition back to its suiteDefs slot.
func defIndex(def flow.Definition) int {
	for di, d := range suiteDefs {
		if d == def {
			return di
		}
	}
	return -1
}

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
	// Regroup the flattened stats cache by trace.
	byTrace := map[string][]IntervalStat{}
	for _, s := range r.stats {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
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
		e.U64(uint64(ti))
		sum := r.summaries[ti]
		e.I64(sum.Flows)
		e.I64(sum.Packets)
		e.I64(sum.Bytes)
		e.F64(sum.Duration)
		e.F64(sum.AvgRateBps)
		e.F64(sum.FlowRate)
		e.I64(sum.OnePktFlows)
		e.I64(r.shed[ti].Intervals)
		e.I64(r.shed[ti].Records)
		stats := byTrace[r.specs[ti].Name]
		e.U64(uint64(len(stats)))
		for _, s := range stats {
			e.U64(uint64(s.Index))
			e.U64(uint64(defIndex(s.Def)))
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
		if ti == 0 {
			e.Bool(true)
			encodeResult(e, r.refRes5)
			encodeResult(e, r.refResP)
		} else {
			e.Bool(false)
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

// shardData is one decoded shard file.
type shardData struct {
	path       string
	shardCount int
	traces     map[int]*shardTrace
}

type shardTrace struct {
	summary trace.Summary
	shed    TraceShed
	stats   []IntervalStat // Trace/TargetBps/linkBps filled by the merger
	hasRef  bool
	refRes5 flow.Result
	refResP flow.Result
}

// decodeShard decodes the shard file at path, which must match the geometry.
func decodeShard(path string, raw []byte, nspecs int, link, intervalSec, delta float64, seed int64) (*shardData, error) {
	if len(raw) < len(shardMagic) || string(raw[:len(shardMagic)]) != shardMagic {
		return nil, fmt.Errorf("experiments: %s is not a shard export: %w", path, snapshot.ErrCorrupt)
	}
	typ, _, payload, _, err := snapshot.ReadFrameAt(raw, len(shardMagic))
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", path, err)
	}
	if typ != shardFrame {
		return nil, fmt.Errorf("experiments: %s holds frame type %d: %w", path, typ, snapshot.ErrCorrupt)
	}
	d := snapshot.NewDec(payload)
	d.U64() // shard index (informational; coverage is checked per trace)
	sd := &shardData{path: path, shardCount: int(d.U64()), traces: map[int]*shardTrace{}}
	if n := d.U64(); int(n) != nspecs {
		return nil, fmt.Errorf("experiments: %s measured a %d-trace suite, this one has %d", path, n, nspecs)
	}
	if l, iv, dl, sd2 := d.F64(), d.F64(), d.F64(), d.I64(); l != link || iv != intervalSec || dl != delta || sd2 != seed {
		return nil, fmt.Errorf("experiments: %s measured a different suite geometry (link %g, interval %g, delta %g, seed %d)", path, l, iv, dl, sd2)
	}
	nOwned := d.U64()
	for i := uint64(0); i < nOwned && d.Err() == nil; i++ {
		ti := int(d.U64())
		st := &shardTrace{}
		st.summary = trace.Summary{
			Flows:       d.I64(),
			Packets:     d.I64(),
			Bytes:       d.I64(),
			Duration:    d.F64(),
			AvgRateBps:  d.F64(),
			FlowRate:    d.F64(),
			OnePktFlows: d.I64(),
		}
		st.shed = TraceShed{Intervals: d.I64(), Records: d.I64()}
		nStats := d.U64()
		if d.Err() != nil || nStats > uint64(d.Rest()/96) {
			return nil, fmt.Errorf("experiments: %s truncated: %w", path, snapshot.ErrCorrupt)
		}
		for j := uint64(0); j < nStats; j++ {
			s := IntervalStat{Index: int(d.U64())}
			di := int(d.U64())
			if di < 0 || di >= len(suiteDefs) {
				return nil, fmt.Errorf("experiments: %s names unknown flow definition %d: %w", path, di, snapshot.ErrCorrupt)
			}
			s.Def = suiteDefs[di]
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
				return nil, fmt.Errorf("experiments: %s truncated: %w", path, snapshot.ErrCorrupt)
			}
			for k := uint64(0); k < nm; k++ {
				b := int(d.I64())
				s.ModelCoV[b] = d.F64()
			}
			st.stats = append(st.stats, s)
		}
		if d.Bool() {
			st.hasRef = true
			st.refRes5 = decodeResult(d)
			st.refResP = decodeResult(d)
		}
		if _, dup := sd.traces[ti]; dup {
			return nil, fmt.Errorf("experiments: %s carries trace %d twice: %w", path, ti, snapshot.ErrCorrupt)
		}
		sd.traces[ti] = st
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("experiments: %s truncated: %w", path, snapshot.ErrCorrupt)
	}
	if d.Rest() != 0 {
		return nil, fmt.Errorf("experiments: %s has %d trailing bytes: %w", path, d.Rest(), snapshot.ErrCorrupt)
	}
	return sd, nil
}

// MergeShards loads shard export files into this (unmeasured) runner,
// reassembling the full suite measurement. The shards must jointly cover
// every trace exactly once and have been measured under this runner's suite
// geometry. After a successful merge the runner behaves exactly as if it had
// measured the whole suite itself — every table and figure renders
// byte-identically to a single-process pass.
func (r *Runner) MergeShards(paths ...string) error {
	if r.measured {
		return fmt.Errorf("experiments: runner already measured; merge needs a fresh runner")
	}
	if len(paths) == 0 {
		return fmt.Errorf("experiments: no shard files to merge")
	}
	byTrace := map[int]*shardTrace{}
	shardCount := -1
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
		sd, err := decodeShard(path, raw, len(r.specs), r.linkBps(), r.specs[0].IntervalSec, r.opts.Delta, r.opts.Suite.Seed)
		if err != nil {
			return err
		}
		if shardCount == -1 {
			shardCount = sd.shardCount
		} else if sd.shardCount != shardCount {
			return fmt.Errorf("experiments: %s is a 1-of-%d shard, earlier files were 1-of-%d", path, sd.shardCount, shardCount)
		}
		// Sorted keys: a malformed file's first error is then deterministic.
		tis := make([]int, 0, len(sd.traces))
		//repro:nondeterminism-ok keys are collected then sorted before use
		for ti := range sd.traces {
			tis = append(tis, ti)
		}
		sort.Ints(tis)
		for _, ti := range tis {
			if ti < 0 || ti >= len(r.specs) {
				return fmt.Errorf("experiments: %s carries trace index %d outside the %d-trace suite", path, ti, len(r.specs))
			}
			if _, dup := byTrace[ti]; dup {
				return fmt.Errorf("experiments: trace %d (%s) appears in more than one shard", ti, r.specs[ti].Name)
			}
			byTrace[ti] = sd.traces[ti]
		}
	}
	for ti := range r.specs {
		if _, ok := byTrace[ti]; !ok {
			return fmt.Errorf("experiments: shards do not cover trace %d (%s)", ti, r.specs[ti].Name)
		}
	}
	// Refill the measurement cache in exactly measureSuite's merge order:
	// traces in suite order, each trace's points definition-major then
	// interval-ascending.
	link := r.linkBps()
	for ti := range r.specs {
		st := byTrace[ti]
		spec := r.specs[ti]
		r.summaries = append(r.summaries, st.summary)
		shed := st.shed
		shed.Trace = spec.Name
		r.shed = append(r.shed, shed)
		slots := make([][]*IntervalStat, spec.Intervals)
		for i := range slots {
			slots[i] = make([]*IntervalStat, len(suiteDefs))
		}
		for i := range st.stats {
			s := st.stats[i]
			if s.Index < 0 || s.Index >= spec.Intervals {
				return fmt.Errorf("experiments: shard point at interval %d of %d-interval trace %s", s.Index, spec.Intervals, spec.Name)
			}
			s.Trace = spec.Name
			s.TargetBps = spec.TargetBps
			s.linkBps = link
			slot := &slots[s.Index][defIndex(s.Def)]
			if *slot != nil {
				return fmt.Errorf("experiments: shard carries interval %d of %s under %v twice: %w", s.Index, spec.Name, s.Def, snapshot.ErrCorrupt)
			}
			*slot = &s
		}
		for di := range suiteDefs {
			for _, row := range slots {
				if s := row[di]; s != nil {
					r.stats = append(r.stats, *s)
				}
			}
		}
		if ti == 0 {
			if !st.hasRef {
				return fmt.Errorf("experiments: the shard owning trace 0 carries no reference interval")
			}
			r.refRes5 = st.refRes5
			r.refResP = st.refResP
		}
	}
	r.measured = true
	return nil
}
