package flow

// This file is the batch-columnar key machinery of the flow assembler: a
// packed two-word flow key per definition, a 64-bit hash computed once per
// packet, and an open-addressed table mapping (hash, key) to a flow-state
// slot. It replaces the generic Go map the assembler used to probe per
// packet per definition: key columns are derived from a block's packed
// Src/Dst columns in vector passes (the /24, /16 and /8 prefix keys all
// come off the same dst column), and the table probe is a linear scan over
// flat arrays with no per-lookup hashing of a 13-byte struct.

// mix64 is the splitmix64 finalizer: a cheap full-avalanche 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hashKey compresses a two-word flow key into the nonzero 64-bit hash the
// open-addressed table probes with. Zero is the table's empty marker, so a
// zero mix is nudged to 1; key equality is always settled on the full
// (a, b) pair, never the hash alone.
func hashKey(a, b uint64) uint64 {
	h := mix64(a ^ b*0x9e3779b97f4a7c15)
	if h == 0 {
		h = 1
	}
	return h
}

// prefixDrop returns the low-bit mask to clear from the destination IP for
// a prefix definition (ok=false for By5Tuple or unknown definitions).
func prefixDrop(def Definition) (drop uint64, ok bool) {
	switch def {
	case ByPrefix24:
		return 0xFF, true
	case ByPrefix16:
		return 0xFFFF, true
	case ByPrefix8:
		return 0xFFFFFF, true
	default:
		return 0, false
	}
}

// flowTable is an open-addressed hash table mapping a packed two-word flow
// key to an int32 flow-state slot: flat columns, power-of-two capacity,
// linear probing, hash 0 marking an empty position. The caller supplies
// the hash (computed once per packet, shared across every probe and the
// resize), so the table itself never hashes.
type flowTable struct {
	hash []uint64
	// key holds each occupied position's two key words side by side, so a
	// probe that matches the hash reads the whole key in one load.
	key  []flowKey
	slot []int32
	// last holds each occupied position's last-seen timestamp — a copy of
	// the flow state's `last` field kept columnar so the idle-expiry sweep
	// scans one flat float64 array instead of chasing slab slots.
	last []float64
	mask uint64
	n    int // occupied positions
	grow int // occupancy that triggers a doubling
	// sweepPos is the rotating cursor of sweepExpired: each call resumes
	// where the previous one stopped, so expiry cost is spread across
	// stream time instead of paid in one full-table pass.
	sweepPos uint64
}

// flowKey is a packed two-word flow key.
type flowKey struct{ a, b uint64 }

// flowTableMinCap is the initial capacity (power of two).
const flowTableMinCap = 256

func (t *flowTable) alloc(c int) {
	t.hash = make([]uint64, c)
	t.key = make([]flowKey, c)
	t.slot = make([]int32, c)
	t.last = make([]float64, c)
	t.mask = uint64(c - 1)
	t.n = 0
	t.grow = c * 3 / 4
}

// reset empties the table, keeping (and clearing) its storage.
func (t *flowTable) reset() {
	if t.hash == nil {
		t.alloc(flowTableMinCap)
		return
	}
	clear(t.hash)
	t.n = 0
	t.sweepPos = 0
}

// find probes for (h, a, b): it returns the key's position when found, or
// the empty position an insert of that key must use.
func (t *flowTable) find(h, a, b uint64) (pos uint64, found bool) {
	i := h & t.mask
	for {
		hh := t.hash[i]
		if hh == 0 {
			return i, false
		}
		if hh == h && t.key[i] == (flowKey{a, b}) {
			return i, true
		}
		i = (i + 1) & t.mask
	}
}

// insert places a new key at the position a failed find returned, growing
// (and then re-probing) first when the table is at its load limit. It
// returns the key's final position.
func (t *flowTable) insert(pos uint64, h, a, b uint64, s int32) uint64 {
	if t.n >= t.grow {
		t.rehash()
		pos, _ = t.find(h, a, b)
	}
	t.hash[pos] = h
	t.key[pos] = flowKey{a, b}
	t.slot[pos] = s
	t.n++
	return pos
}

// rehash doubles capacity and reinserts every occupied position using its
// stored hash (keys are distinct, so each lands at its first empty probe).
func (t *flowTable) rehash() {
	oh, ok, os, ol := t.hash, t.key, t.slot, t.last
	t.alloc(2 * len(oh))
	for i, h := range oh {
		if h == 0 {
			continue
		}
		j := h & t.mask
		for t.hash[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.hash[j] = h
		t.key[j] = ok[i]
		t.slot[j] = os[i]
		t.last[j] = ol[i]
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
		t.hash[i] = 0
		j := i
		for {
			j = (j + 1) & t.mask
			h := t.hash[j]
			if h == 0 {
				return
			}
			// Move j's entry into the hole at i iff its home position lies
			// cyclically at or before i — i.e. probing from home would pass
			// through i before reaching j.
			home := h & t.mask
			if (j-home)&t.mask >= (j-i)&t.mask {
				t.hash[i] = h
				t.key[i] = t.key[j]
				t.slot[i] = t.slot[j]
				t.last[i] = t.last[j]
				i = j
				break
			}
		}
	}
}

// sweepExpired examines k positions starting at the rotating cursor,
// evicting entries whose last-seen timestamp is before deadline: evict
// receives the entry's slot, then the position is deleted. Backward-shift
// deletion can move a not-yet-visited entry into the examined position, so
// a deleting step re-examines the position without advancing, and only
// advancing steps count toward k: k = len(hash) examines the whole table.
// Deletions are paid for by the inserts that made the entries, so a call
// costs k positions plus its evictions. Entries move only toward the
// cursor, never past it, so successive calls rotate through the whole
// table and any idle entry is found within one full rotation. Expiry
// timing affects only the memory bound, never results, because eviction
// runs the same finalisation a Flush would.
func (t *flowTable) sweepExpired(deadline float64, k int, evict func(slot int32)) {
	if t.n == 0 {
		return
	}
	i := t.sweepPos & t.mask
	for step := 0; step < k; {
		if t.hash[i] != 0 && t.last[i] < deadline {
			evict(t.slot[i])
			t.del(i)
			continue
		}
		i = (i + 1) & t.mask
		step++
	}
	t.sweepPos = i
}
