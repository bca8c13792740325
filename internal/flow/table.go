package flow

import "repro/internal/netpkt"

// This file is the batch-columnar key machinery of the flow assembler: a
// packed two-word flow key, a 64-bit hash computed once per packet, and an
// open-addressed table of 32-byte entries, each mapping a key to its flow's
// admission number (the flow's index in the assembler's flow store) beside
// the flow's last-seen time. It replaces the generic Go map the assembler
// used to probe per packet per definition: a definition's key is two masks
// over a block's packed Src/Dst columns, and a probe that finds an open
// flow reads one entry, so a packet touches the entry's cache line and its
// flow's record in the store, nothing else.

// mix64 is the splitmix64 finalizer: a cheap full-avalanche 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hashKey compresses a two-word flow key into the 64-bit hash whose low
// bits are the key's home position in the open-addressed table. The table
// stores no hash: deletion and growth recompute it from the entry's key,
// so every probe must be given exactly hashKey of its key. Key equality is
// always settled on the full (a, b) pair, never the hash alone.
func hashKey(a, b uint64) uint64 { return mix64(a ^ b*0x9e3779b97f4a7c15) }

// keyMasks returns the masks that cut a definition's key out of a packet's
// packed Src/Dst words: the key is (src & am, dst & bm). Every definition
// keeps the destination address where the packing puts it, so the address
// of any key is its second word >> PackedAddrShift, and a coarser prefix
// key is a further mask of it. ok is false for an unknown definition.
func keyMasks(def Definition) (am, bm uint64, ok bool) {
	var drop uint64
	switch def {
	case By5Tuple:
		return ^uint64(0), ^uint64(netpkt.PackedTTLMask), true
	case ByPrefix24:
		drop = 0xFF
	case ByPrefix16:
		drop = 0xFFFF
	case ByPrefix8:
		drop = 0xFFFFFF
	default:
		return 0, 0, false
	}
	return 0, (0xFFFFFFFF &^ drop) << netpkt.PackedAddrShift, true
}

// flowTable is an open-addressed hash table over packed two-word flow
// keys: one column of 32-byte entries, power-of-two capacity, linear
// probing. An entry is live while its live flag is set; deletion and reset
// clear the flag. The caller supplies each probe's hash (computed once
// per packet, in columns), and the table recomputes it from stored keys
// only when an entry moves: on backward-shift deletion and on growth.
type flowTable struct {
	ent  []flowEntry
	mask uint64
	n    int // live entries
	grow int // occupancy that triggers a doubling
	// sweepPos is the rotating cursor of sweepExpired: each call resumes
	// where the previous one stopped, so expiry cost is spread across
	// stream time instead of paid in one full-table pass.
	sweepPos uint64
}

// flowKey is a packed two-word flow key.
type flowKey struct{ a, b uint64 }

// flowEntry is one table position: 32 bytes, so two share a cache line,
// and the table's power-of-two allocations leave none straddling one.
type flowEntry struct {
	key  flowKey
	last float64 // the flow's last-seen time, the idle timeout's operand
	adm  int32   // the flow's admission number: its index in the store
	live uint32  // 1 iff the position holds an entry
}

// flowTableMinCap is the initial capacity (power of two).
const flowTableMinCap = 256

// alloc replaces the storage with c empty positions.
func (t *flowTable) alloc(c int) {
	t.ent = make([]flowEntry, c)
	t.mask = uint64(c - 1)
	t.n = 0
	t.grow = c * 3 / 4
}

// reset empties the table, keeping its storage.
func (t *flowTable) reset() {
	t.n = 0
	t.sweepPos = 0
	if t.ent == nil {
		t.alloc(flowTableMinCap)
		return
	}
	clear(t.ent)
}

// find probes for the key (a, b), whose hash is h: it returns the key's
// position when found, or the empty position an insert of that key must
// use.
func (t *flowTable) find(h, a, b uint64) (pos uint64, found bool) {
	i := h & t.mask
	for {
		e := &t.ent[i]
		if e.live == 0 {
			return i, false
		}
		if e.key == (flowKey{a, b}) {
			return i, true
		}
		i = (i + 1) & t.mask
	}
}

// insert places a new entry for key (a, b), whose hash is h, at the
// position a failed find returned, growing (and then re-probing) first
// when the table is at its load limit. It returns the entry's position.
func (t *flowTable) insert(pos, h, a, b uint64, last float64, adm int32) uint64 {
	if t.n >= t.grow {
		t.rehash()
		pos, _ = t.find(h, a, b)
	}
	t.ent[pos] = flowEntry{key: flowKey{a, b}, last: last, adm: adm, live: 1}
	t.n++
	return pos
}

// home returns the position probing for e's key starts at.
func (t *flowTable) home(e *flowEntry) uint64 { return hashKey(e.key.a, e.key.b) & t.mask }

// rehash doubles capacity and reinserts every live entry at the first
// empty position from its home (keys are distinct, so no compare is
// needed).
func (t *flowTable) rehash() {
	old := t.ent
	t.alloc(2 * len(old))
	for i := range old {
		e := &old[i]
		if e.live == 0 {
			continue
		}
		j := t.home(e)
		for t.ent[j].live != 0 {
			j = (j + 1) & t.mask
		}
		t.ent[j] = *e
		t.n++
	}
}

// del removes the entry at position pos by backward-shift deletion (no
// tombstones: every displaced entry in the probe chain after pos moves back
// toward its home position, so find's probe invariant survives).
func (t *flowTable) del(pos uint64) {
	t.n--
	i := pos
	for {
		t.ent[i].live = 0
		j := i
		for {
			j = (j + 1) & t.mask
			e := &t.ent[j]
			if e.live == 0 {
				return
			}
			// Move j's entry into the hole at i iff its home position lies
			// cyclically at or before i — i.e. probing from home would pass
			// through i before reaching j.
			home := t.home(e)
			if (j-home)&t.mask >= (j-i)&t.mask {
				t.ent[i] = *e
				i = j
				break
			}
		}
	}
}

// sweepExpired examines k positions starting at the rotating cursor and
// deletes every entry whose last-seen time is before deadline.
// Backward-shift deletion can move a not-yet-visited
// entry into the examined position, so a deleting step re-examines the
// position without advancing, and only advancing steps count toward k:
// k = len(ent) examines the whole table. Deletions are paid for by the
// inserts that made the entries, so a call costs k positions plus its
// deletions. Entries move only toward the cursor, never past it, so
// successive calls rotate through the whole table and any idle entry is
// found within one full rotation. A deleted flow's record in the store is
// already complete, so expiry timing affects only the memory bound, never
// results.
func (t *flowTable) sweepExpired(deadline float64, k int) {
	if t.n == 0 {
		return
	}
	i := t.sweepPos & t.mask
	for step := 0; step < k; {
		if e := &t.ent[i]; e.live != 0 && e.last < deadline {
			t.del(i)
			continue
		}
		i = (i + 1) & t.mask
		step++
	}
	t.sweepPos = i
}
