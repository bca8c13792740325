package experiments

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// handShard returns an export of the tiny suite with the given points, as
// if this runner had measured them, and a small reference interval. Each
// point lands in the slot its Trace, Index and Def name.
func handShard(t testing.TB, stats ...IntervalStat) []byte {
	t.Helper()
	r, err := NewRunner(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	r.results = make([]*traceResult, len(r.specs))
	for ti, spec := range r.specs {
		r.results[ti] = newTraceResult(spec.Intervals)
	}
	for _, s := range stats {
		ti := slices.IndexFunc(r.specs, func(spec trace.TraceSpec) bool { return spec.Name == s.Trace })
		r.results[ti].stats[s.Index][slices.Index(suiteDefs, s.Def)] = &s
	}
	r.results[0].ref[0] = flow.Result{
		Flows:     []flow.Flow{{Start: 0.5, End: 2, Bytes: 3000, Packets: 3}},
		Discarded: []flow.DiscardedPacket{{Time: 1, Bits: 320}},
	}
	path := filepath.Join(t.TempDir(), "hand.shard")
	if err := r.ExportShard(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// A shard file that carries one (interval, definition) point twice, or
// that reports shed intervals, is corrupt: merging it must fail instead of
// keeping one copy silently or rendering a figure with missing points. The
// result table cannot hold a duplicate, so the test splices one into the
// bytes of a hand-made export.
func TestMergeShardsRejectsDuplicatePoint(t *testing.T) {
	r, err := NewRunner(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	pt := IntervalStat{Trace: r.specs[1].Name, Index: 1, Def: flow.ByPrefix24, FlowCount: 12, ModelCoV: map[int]float64{0: 0.1}}
	_, _, payload, _, err := snapshot.ReadFrameAt(handShard(t, pt), len(shardMagic))
	if err != nil {
		t.Fatal(err)
	}
	var point snapshot.Enc
	encodePoint(&point, slices.Index(suiteDefs, pt.Def), &pt)
	at := bytes.Index(payload, point.Bytes())
	if at < 8 || binary.LittleEndian.Uint64(payload[at-8:]) != 1 {
		t.Fatalf("the point's encoding is not the sole point of its trace (offset %d)", at)
	}
	// The trace's point count precedes its points: count 2, then the point
	// twice.
	dup := slices.Concat(payload[:at-8], binary.LittleEndian.AppendUint64(nil, 2), point.Bytes(), payload[at:])

	// Eight header words, then trace 0's index and seven summary words:
	// its shed-interval slot starts at byte 128.
	shed := bytes.Clone(payload)
	binary.LittleEndian.PutUint64(shed[128:], 1)
	for _, c := range []struct {
		name string
		file []byte
		want string
	}{
		{"duplicated point", framedShard(t, dup), "interval 1 of " + pt.Trace + " under " + pt.Def.String() + " twice"},
		{"shed interval", framedShard(t, shed), "shed 1 intervals"},
	} {
		path := filepath.Join(t.TempDir(), "bad.shard")
		if err := os.WriteFile(path, c.file, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(tinyOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.MergeShards(path); !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("merging a shard with a %s: %v, want ErrCorrupt naming %q", c.name, err, c.want)
		}
	}
}

// framedShard wraps payload in the shard magic and a valid frame, so the
// fuzzer's mutations reach the payload decoder past the frame CRC.
func framedShard(t testing.TB, payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(shardMagic)
	if err := snapshot.WriteFrame(&buf, shardFrame, 0, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzShardDecode feeds decodeShard arbitrary bytes, each both as a whole
// file and as the payload of a valid frame. Seeds: a measured shard export,
// a hand-made one carrying the reference interval, their payloads,
// truncations and bit flips. Whatever the input: no panic; allocation
// bounded by the input size; every error wraps snapshot.ErrCorrupt or
// ErrTorn, or names a suite-geometry mismatch.
func FuzzShardDecode(f *testing.F) {
	o := tinyOptions()
	o.ShardIndex, o.ShardCount = 1, 2
	r, err := NewRunner(o)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "measured.shard")
	if err := r.ExportShard(path); err != nil {
		f.Fatal(err)
	}
	measured, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	hand := handShard(f, IntervalStat{Trace: r.specs[0].Name, Def: flow.By5Tuple, ModelCoV: map[int]float64{2: 0.3}})
	for _, file := range [][]byte{measured, hand} {
		_, _, payload, _, err := snapshot.ReadFrameAt(file, len(shardMagic))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(file)
		raw := payload
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(raw[:len(raw)-1])
		for _, i := range []int{2, len(raw) / 3, len(raw) - 9} {
			c := bytes.Clone(raw)
			c[i] ^= 0x10
			f.Add(c)
		}
	}
	link, delta, seed := r.linkBps(), r.opts.Delta, r.opts.Suite.Seed
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, file := range [][]byte{raw, framedShard(t, raw)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := decodeShard("fuzz.shard", file, r.specs, link, delta, seed)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10+16*uint64(len(file)) {
				t.Fatalf("decoding %d bytes allocated %d bytes", len(file), grew)
			}
			if err != nil && !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrTorn) &&
				!strings.Contains(err.Error(), "measured a") {
				t.Fatalf("untagged decode error: %v", err)
			}
		}
	})
}

// mergeMismatches are the phrases of MergeShards' errors that name a
// coverage or suite-geometry mismatch rather than damage.
var mergeMismatches = []string{
	"measured a",          // suite size or geometry
	"-of-",                // shard counts disagree
	"more than one shard", // a trace covered twice
	"do not cover",        // a trace covered by no shard
}

// FuzzMergeShards merges each input, written as one shard file, beside a
// valid export of the other shard of a two-shard suite, into a fresh
// runner. Each input is tried both as a whole file and as the payload of a
// valid frame. Seeds: both shards of a real two-shard export, the first's
// payload, truncations and bit flips. Whatever the input: no panic; every
// error wraps snapshot.ErrCorrupt or ErrTorn, or names a coverage or
// geometry mismatch; and a merge that succeeds renders Table 1.
func FuzzMergeShards(f *testing.F) {
	dir := f.TempDir()
	var shards [2][]byte
	for i := range shards {
		o := tinyOptions()
		o.ShardIndex, o.ShardCount = i, 2
		r, err := NewRunner(o)
		if err != nil {
			f.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.shard", i))
		if err := r.ExportShard(path); err != nil {
			f.Fatal(err)
		}
		if shards[i], err = os.ReadFile(path); err != nil {
			f.Fatal(err)
		}
	}
	other := filepath.Join(dir, "shard-1.shard")
	if r, err := NewRunner(tinyOptions()); err != nil {
		f.Fatal(err)
	} else if err := r.MergeShards(filepath.Join(dir, "shard-0.shard"), other); err != nil {
		f.Fatalf("the seed export does not merge: %v", err)
	}
	_, _, payload, _, err := snapshot.ReadFrameAt(shards[0], len(shardMagic))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(shards[0])
	f.Add(shards[1])
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Add(shards[0][:len(shards[0])-1])
	for _, i := range []int{2, len(payload) / 3, len(payload) - 9} {
		c := bytes.Clone(payload)
		c[i] ^= 0x10
		f.Add(c)
	}
	path := filepath.Join(dir, "fuzz.shard")
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, file := range [][]byte{raw, framedShard(t, raw)} {
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := NewRunner(tinyOptions())
			if err != nil {
				t.Fatal(err)
			}
			err = r.MergeShards(path, other)
			if err == nil {
				if err := r.Table1(io.Discard); err != nil {
					t.Fatalf("merged shards do not render Table 1: %v", err)
				}
				continue
			}
			if errors.Is(err, snapshot.ErrCorrupt) || errors.Is(err, snapshot.ErrTorn) ||
				slices.ContainsFunc(mergeMismatches, func(m string) bool { return strings.Contains(err.Error(), m) }) {
				continue
			}
			t.Fatalf("untagged merge error: %v", err)
		}
	})
}
