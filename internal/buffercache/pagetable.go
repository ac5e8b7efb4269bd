// Open-addressing page table: the per-shard residency index.
//
// Each shard used to map page numbers to frames through a Go map, which
// meant every cold-page install paid a runtime map assign (hashing,
// bucket walk, possible bucket allocation) and every eviction a map
// delete — the dominant non-disk cost of the miss/evict path once the
// warm path went run-granular. This table replaces it with the classic
// allocation-free design real kernels use for buffer lookup structures:
//
//   - power-of-two slot array sized from the shard's share of the frame
//     budget, probed linearly from a fibonacci-hashed home slot. The
//     cache picks a page's stripe from the top bits of the same hash, so
//     every page of one shard shares those bits; the home slot takes the
//     bits just below them, or a shard of an 8-stripe cache could only
//     ever home into 1/8 of its slots and probe through one long cluster;
//   - deletion by backshift (Knuth's algorithm R): the probe chain is
//     compacted in place, so there are no tombstones and lookups never
//     degrade under install/evict churn;
//   - every frame stores its current slot index, making removal O(1) to
//     locate — no lookup before delete;
//   - slots hold only the *frame (the key lives in frame.page), so the
//     table is one pointer per slot and growth is a rare rehash, never a
//     per-operation allocation. Steady-state install/evict traffic — the
//     cache at full budget recycling frames — allocates nothing.
//
// Equivalence with the map it replaces is pinned by a property test that
// replays random insert/delete/lookup interleavings (including clustered
// keys that force long probe chains and backshift cascades) against a
// map[int64]*frame reference model, and by a fuzz target over op strings.
package buffercache

// pageTable maps page numbers to resident frames by open addressing.
// The zero value is unusable; call init first. Not safe for concurrent
// use — it lives under its shard's mutex.
type pageTable struct {
	slots []*frame
	skip  uint // the stripe bits: the cache's shardShift
	shift uint // home slot = (hash << skip) >> shift; len(slots) == 1<<(64-shift)
	used  int
}

// init sizes a table for a shard expected to hold about budget frames:
// the smallest power of two keeping the load factor at or below one
// half at that occupancy (minimum 16 slots). Capacity migrates between
// shards under pressure, so the table grows by rehash if this shard
// outruns its share. skip is the number of top hash bits the cache
// stripes on (0 with one stripe).
func (t *pageTable) init(budget int, skip uint) {
	size := 16
	for size < 2*budget {
		size <<= 1
	}
	t.skip = skip
	t.grow(size)
}

// hashSlot returns the home slot for page: fibonacci hashing, taking the
// top bits below the stripe bits so clustered page numbers scatter
// within the shard.
func (t *pageTable) hashSlot(page int64) int {
	return int(((uint64(page) * 0x9E3779B97F4A7C15) << t.skip) >> t.shift)
}

// get returns the frame holding page, or nil.
func (t *pageTable) get(page int64) *frame {
	mask := len(t.slots) - 1
	for i := t.hashSlot(page); ; i = (i + 1) & mask {
		f := t.slots[i]
		if f == nil {
			return nil
		}
		if f.page == page {
			return f
		}
	}
}

// put inserts f under its current f.page, which must not be resident.
// The frame learns its slot; a table past half load doubles first, so
// probe chains stay short under any shard imbalance.
func (t *pageTable) put(f *frame) {
	if 2*(t.used+1) > len(t.slots) {
		t.grow(2 * len(t.slots))
	}
	mask := len(t.slots) - 1
	i := t.hashSlot(f.page)
	for t.slots[i] != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = f
	f.slot = int32(i)
	t.used++
}

// del removes f, located in O(1) through its stored slot, and compacts
// the probe chain behind it by backshift so no tombstone is left: each
// following entry whose home slot does not lie cyclically inside the
// gap..entry interval is moved into the gap (updating its stored slot)
// and the scan continues from its old position.
func (t *pageTable) del(f *frame) {
	mask := len(t.slots) - 1
	i := int(f.slot)
	t.slots[i] = nil
	t.used--
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		g := t.slots[j]
		if g == nil {
			return
		}
		home := t.hashSlot(g.page)
		// g can fill the gap at i iff its home slot is not cyclically
		// within (i, j] — otherwise moving it would break its own chain.
		if (j-home)&mask >= (j-i)&mask {
			t.slots[i] = g
			g.slot = int32(i)
			t.slots[j] = nil
			i = j
		}
	}
}

// len returns the number of resident entries.
func (t *pageTable) len() int { return t.used }

// reset empties the table, keeping the slot array. The stale slot fields
// of the dropped frames are harmless: slot is only meaningful while a
// frame is resident, and put refreshes it.
func (t *pageTable) reset() {
	clear(t.slots)
	t.used = 0
}

// grow rehashes into a slot array of the given power-of-two size.
// Rehashing preserves every frame and refreshes its stored slot.
func (t *pageTable) grow(size int) {
	old := t.slots
	t.slots = make([]*frame, size)
	shift := uint(64)
	for 1<<(64-shift) < size {
		shift--
	}
	t.shift = shift
	t.used = 0
	for _, f := range old {
		if f != nil {
			t.put(f)
		}
	}
}

// each calls fn for every resident frame. The iteration order is the
// slot order — callers that need a deterministic order (Flush's elevator
// sweep) sort what they collect, exactly as they did over the Go map.
func (t *pageTable) each(fn func(f *frame)) {
	for _, f := range t.slots {
		if f != nil {
			fn(f)
		}
	}
}
