package trace

import (
	"context"
	"sort"
	"testing"

	"repro/internal/dist/rng"
	"repro/internal/netpkt"
)

// playerEmission is one packet as the player reports it.
type playerEmission struct {
	t     float64
	pkt   int
	index uint32 // recovered via the source port, which the test sets to the flow index
}

// portTag packs a flow index into the source-port field of a program's
// header word, so a test recovers the flow from an emitted packet.
func portTag(idx uint32) uint64 { return uint64(uint16(idx)) << netpkt.PackedPortShift }

// emissions unpacks block packets [from, Len) as player emissions.
func emissions(blk *Block, from int) []playerEmission {
	var out []playerEmission
	for i := from; i < blk.Len(); i++ {
		out = append(out, playerEmission{
			t:     blk.Times[i],
			pkt:   int(blk.Sizes[i]),
			index: uint32(uint16(blk.Srcs[i] >> netpkt.PackedPortShift)),
		})
	}
	return out
}

// PacketSize returns the wire size in bytes of packet k (0-based): full MTU
// except for a final partial packet.
func (p *FlowProgram) PacketSize(k int) int {
	if remaining := p.SizeB - k*p.PktBytes; remaining < p.PktBytes {
		return remaining
	}
	return p.PktBytes
}

// bruteForce computes the exact expected emission sequence of a program
// population over [lo, hi): every packet time from the closed-form pacing,
// filtered to the window, sorted by the canonical (time, index) order.
func bruteForce(progs []FlowProgram, lo, hi float64) []playerEmission {
	var out []playerEmission
	for i := range progs {
		p := &progs[i]
		for k := 0; k < p.NumPackets(); k++ {
			t := p.PacketTime(k)
			if t < lo || t >= hi {
				continue
			}
			out = append(out, playerEmission{t: t, pkt: p.PacketSize(k), index: p.Index})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].t != out[j].t {
			return out[i].t < out[j].t
		}
		return out[i].index < out[j].index
	})
	return out
}

// collectPlayer drains the player's window through fill, one block at a
// time, at offset 0.
func collectPlayer(pl *player) []playerEmission {
	var out []playerEmission
	blk := GetBlock()
	defer PutBlock(blk)
	for more := true; more; {
		blk.Reset()
		more = pl.fill(blk, 0)
		out = append(out, emissions(blk, 0)...)
	}
	return out
}

func comparePlayer(t *testing.T, label string, got, want []playerEmission) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d packets, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: packet %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// adversarialPrograms builds a population designed to stress the bucket
// queue's ordering: random overlapping flows, plus runs of exact clones
// (identical Start and packet times, distinct indices — only the admission
// index separates their emissions), all tagged with the index as source
// port so the test can recover the flow from the emitted header.
func adversarialPrograms(seed int64, n int) []FlowProgram {
	r := rng.New(seed)
	var progs []FlowProgram
	idx := uint32(0)
	add := func(start, dur float64, size int, invBp1 float64) {
		idx++
		progs = append(progs, FlowProgram{
			Index:    idx,
			Start:    start,
			Duration: dur,
			SizeB:    size,
			InvBp1:   invBp1,
			PktBytes: 1500,
			Src:      portTag(idx),
		})
	}
	for i := 0; i < n; i++ {
		start := r.Float64() * 30
		dur := 0.01 + r.Float64()*12
		size := 40 + r.Intn(30000)
		inv := 1 / (1 + r.Float64()*2.5)
		add(start, dur, size, inv)
		if i%7 == 0 {
			// Exact clones: equal float64 packet times, index-only ordering.
			for c := 0; c < 3; c++ {
				add(start, dur, size, inv)
			}
		}
	}
	return progs
}

// The player must reproduce the brute-force (time, index) order exactly —
// eager admission (segments), lazy slice-feed admission (checkpoint
// replay), shallow and deep windows, and a degenerate one-bucket span
// alike.
func TestPlayerMatchesBruteForce(t *testing.T) {
	progs := adversarialPrograms(11, 300)
	windows := []struct{ lo, hi float64 }{
		{0, 50},           // everything
		{3.7, 9.2},        // interior window: fast-forward + truncation
		{20, 20.001},      // sliver: nb floors at minimum, heavy clamping
		{0.5, 0.5 + 1e-9}, // degenerate span: one-bucket fallback
	}
	for _, w := range windows {
		want := bruteForce(progs, w.lo, w.hi)

		var eager player
		eager.initPlayer(w.lo, w.hi, len(want), nil)
		for i := range progs {
			eager.admit(&progs[i])
		}
		comparePlayer(t, "eager", collectPlayer(&eager), want)

		sorted := append([]FlowProgram(nil), progs...)
		sort.SliceStable(sorted, func(i, j int) bool {
			if sorted[i].Start != sorted[j].Start {
				return sorted[i].Start < sorted[j].Start
			}
			return sorted[i].Index < sorted[j].Index
		})
		var lazy player
		lazy.initPlayer(w.lo, w.hi, len(want), &sliceFeed{progs: sorted})
		comparePlayer(t, "lazy", collectPlayer(&lazy), want)

		// A wildly wrong event estimate must not change the order, only the
		// constants.
		var tiny player
		tiny.initPlayer(w.lo, w.hi, 0, nil)
		for i := range progs {
			tiny.admit(&progs[i])
		}
		comparePlayer(t, "tiny-estimate", collectPlayer(&tiny), want)
	}
}

// Draining a window through repeated fill calls must resume exactly where
// each call stopped: blocks pre-padded to leave 1, 2, 17 or BlockSize free
// slots cut the stream at arbitrary packets, and the packets appended after
// the padding, concatenated, are the brute-force sequence. fill never
// touches the padding, and it rebases by its offset.
func TestPlayerEarlyStop(t *testing.T) {
	progs := adversarialPrograms(13, 60)
	want := bruteForce(progs, 0, 50)
	var pl player
	pl.initPlayer(0, 50, len(want), nil)
	for i := range progs {
		pl.admit(&progs[i])
	}
	const offset = 0.25
	blk := GetBlock()
	defer PutBlock(blk)
	var got []playerEmission
	rooms := []int{1, 17, 2, BlockSize, 1}
	for i, more := 0, true; more; i++ {
		blk.Reset()
		pad := BlockSize - rooms[i%len(rooms)]
		for range pad {
			blk.Append(-1, 0, 0, 0)
		}
		more = pl.fill(blk, offset)
		if more && blk.Len() != BlockSize {
			t.Fatalf("fill %d: reported more with %d of %d slots filled", i, blk.Len(), BlockSize)
		}
		for j := range pad {
			if blk.Times[j] != -1 || blk.Srcs[j] != 0 {
				t.Fatalf("fill %d overwrote padding slot %d", i, j)
			}
		}
		got = append(got, emissions(blk, pad)...)
	}
	for i := range want {
		want[i].t -= offset
	}
	comparePlayer(t, "resume", got, want)
	blk.Reset()
	if pl.fill(blk, offset) || blk.Len() != 0 {
		t.Fatalf("fill after the drain appended %d packets", blk.Len())
	}
}

// A window whose packet count is an exact multiple of BlockSize fills its
// last block on its last packet: playBlocks must not hand fn an empty block
// after it, and a segment must not send one.
func TestPlayerExactBlockMultiple(t *testing.T) {
	// 2·BlockSize/8 flows of 8 packets each, all inside [0, 10).
	progs := make([]FlowProgram, 2*BlockSize/8)
	for i := range progs {
		progs[i] = FlowProgram{
			Index:    uint32(i + 1),
			Start:    float64(i) * 0.01,
			Duration: 5,
			SizeB:    8 * 1500,
			InvBp1:   0.5,
			PktBytes: 1500,
			Src:      portTag(uint32(i + 1)),
		}
	}
	want := bruteForce(progs, 0, 10)
	if len(want) != 2*BlockSize {
		t.Fatalf("fixture has %d packets, want %d", len(want), 2*BlockSize)
	}
	live := LiveBlocks()

	var pl player
	pl.initPlayer(0, 10, len(want), &sliceFeed{progs: progs})
	var got []playerEmission
	err := pl.playBlocks(0, func(blk *Block) error {
		if blk.Len() != BlockSize {
			t.Errorf("playBlocks handed fn a block of %d packets", blk.Len())
		}
		got = append(got, emissions(blk, 0)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	comparePlayer(t, "playBlocks", got, want)

	sg := segment{loAbs: 0, hiAbs: 10, progs: append([]FlowProgram(nil), progs...), blocks: make(chan *Block, 4)}
	sg.synthesize(context.Background(), &pl, 0, func(r any) { t.Fatalf("segment panicked: %v", r) })
	got = got[:0]
	for blk := range sg.blocks {
		if blk.Len() != BlockSize {
			t.Errorf("segment sent a block of %d packets", blk.Len())
		}
		got = append(got, emissions(blk, 0)...)
		PutBlock(blk)
	}
	comparePlayer(t, "segment", got, want)
	if d := LiveBlocks() - live; d != 0 {
		t.Fatalf("%d pooled blocks not returned", d)
	}
}

// A degenerate load — thousands of events clustered into a sliver of a long
// window, on a grid sized for a handful per bucket — must trigger the hot
// bucket refine (adaptive grid rebuild) and still emit the exact
// brute-force order. Without the refine this shape degrades to quadratic
// insertion-sorting of one giant bucket.
func TestPlayerRefinesHotBuckets(t *testing.T) {
	r := rng.New(17)
	var progs []FlowProgram
	for i := 0; i < 2000; i++ {
		// All flows start inside [0, 0.4) of a 4000 s window: with the
		// default grid every first-packet event lands in bucket 0.
		progs = append(progs, FlowProgram{
			Index:    uint32(i + 1),
			Start:    r.Float64() * 0.4,
			Duration: 0.01 + r.Float64()*2,
			SizeB:    40 + r.Intn(9000),
			InvBp1:   1 / (1 + r.Float64()),
			PktBytes: 1500,
			Src:      portTag(uint32(i + 1)),
		})
	}
	want := bruteForce(progs, 0, 4000)
	var pl player
	pl.initPlayer(0, 4000, len(progs)*2, nil)
	for i := range progs {
		pl.admit(&progs[i])
	}
	comparePlayer(t, "hot-bucket", collectPlayer(&pl), want)
	if pl.q.splits == 0 {
		t.Fatal("clustered load drained without a grid refine")
	}
}

// A player must be reusable across windows (the synthesis workers run many
// segments through one player): a second initPlayer after a full drain
// replays exactly, storage reuse notwithstanding.
func TestPlayerReuseAcrossWindows(t *testing.T) {
	progs := adversarialPrograms(19, 200)
	var pl player
	for _, w := range []struct{ lo, hi float64 }{{0, 50}, {5, 9}, {0, 50}} {
		want := bruteForce(progs, w.lo, w.hi)
		pl.initPlayer(w.lo, w.hi, len(want), nil)
		for i := range progs {
			pl.admit(&progs[i])
		}
		comparePlayer(t, "reuse", collectPlayer(&pl), want)
	}
}
