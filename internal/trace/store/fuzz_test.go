package store

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/trace"
)

// FuzzStoreOpen feeds raw file bytes to the store reader through both
// backings, the mmap and the ReadAt one. Whatever the input, opening and
// streaming must not panic, every error must wrap snapshot.ErrTorn or
// snapshot.ErrCorrupt, a returned reader must deliver at most Packets()
// packets, and the two backings must agree on the packet count, the error
// class and every delivered column. Opening and streaming may allocate at
// most 32 KiB plus 4× the input size: a 30 s local run (~54k inputs of up
// to 2.3 KB) peaked at 2× the input plus 1.4 KB, so the bound leaves 2×
// headroom while still catching a header that sizes an allocation from a
// count the bytes cannot back.
func FuzzStoreOpen(f *testing.F) {
	// A ~2 KB store: meta, three segments and the trailer.
	seed := filepath.Join(f.TempDir(), "seed.fstore")
	if _, err := Generate(context.Background(), seed, footerFixtureCfg(), 0, Options{SegmentPackets: 16}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn inside the second segment
	flipped := bytes.Clone(valid)
	flipped[len(valid)/4] ^= 0x10 // a column byte of the first segment
	f.Add(flipped)
	// The same trace written with a checkpoint footer frame, whole and
	// with a bit flipped inside the footer: the frame readers must skip.
	old, err := os.ReadFile(footerFixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	f.Add(flipFooter(f, old))

	// One scratch file per fuzz process: inputs run one at a time, and a
	// fresh t.TempDir per input costs more than the decode under test.
	path := filepath.Join(f.TempDir(), "fuzz.fstore")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, readAt := range []bool{false, true} {
			if grew := drainAllocs(path, readAt); grew > 32<<10+4*uint64(len(data)) {
				t.Fatalf("readAt=%v: opening and streaming %d bytes allocated %d bytes", readAt, len(data), grew)
			}
		}
		mm := drainStore(t, path, false)
		ra := drainStore(t, path, true)
		if mm.openClass != ra.openClass || mm.streamClass != ra.streamClass {
			t.Fatalf("error classes differ: mmap open %s stream %s, ReadAt open %s stream %s",
				mm.openClass, mm.streamClass, ra.openClass, ra.streamClass)
		}
		if mm.opened != ra.opened || mm.packets != ra.packets {
			t.Fatalf("mmap reader (opened %v, %d packets) != ReadAt reader (opened %v, %d packets)",
				mm.opened, mm.packets, ra.opened, ra.packets)
		}
		if !slices.Equal(mm.times, ra.times) || !slices.Equal(mm.sizes, ra.sizes) ||
			!slices.Equal(mm.srcs, ra.srcs) || !slices.Equal(mm.dsts, ra.dsts) {
			t.Fatalf("backings deliver different columns (%d vs %d packets)", len(mm.times), len(ra.times))
		}
	})
}

// drainAllocs opens path through one backing and streams it to the end
// into a sink that keeps nothing, returning the bytes allocated meanwhile.
func drainAllocs(path string, readAt bool) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if r, err := open(path, readAt); err == nil {
		_ = r.Stream(context.Background(), 0, func(*trace.Block) error { return nil })
		r.Close()
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// drained is what one backing made of a store file: the error class of
// Open and of a full Stream, the reader's packet count and copies of every
// delivered column (times as bits, so NaN payloads compare exactly).
type drained struct {
	openClass, streamClass string
	opened                 bool
	packets                int64
	times                  []uint64
	sizes                  []uint16
	srcs, dsts             []uint64
}

func drainStore(t *testing.T, path string, readAt bool) drained {
	t.Helper()
	r, err := open(path, readAt)
	d := drained{openClass: storeErrClass(t, err)}
	if r == nil {
		return d
	}
	defer r.Close()
	d.opened, d.packets = true, r.Packets()
	err = r.Stream(context.Background(), 0, func(blk *trace.Block) error {
		for _, x := range blk.Times {
			d.times = append(d.times, math.Float64bits(x))
		}
		d.sizes = append(d.sizes, blk.Sizes...)
		d.srcs = append(d.srcs, blk.Srcs...)
		d.dsts = append(d.dsts, blk.Dsts...)
		return nil
	})
	d.streamClass = storeErrClass(t, err)
	if n := int64(len(d.times)); n > d.packets {
		t.Fatalf("readAt=%v: Stream delivered %d packets, reader holds %d", readAt, n, d.packets)
	}
	return d
}

// storeErrClass names the tagged class an error wraps, failing the test on
// an untagged one.
func storeErrClass(t *testing.T, err error) string {
	t.Helper()
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, snapshot.ErrTorn):
		return "torn"
	case errors.Is(err, snapshot.ErrCorrupt):
		return "corrupt"
	}
	t.Fatalf("untagged store error: %v", err)
	return ""
}
