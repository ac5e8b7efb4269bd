package buffercache

import (
	"testing"
	"time"

	"repro/internal/simdisk"
)

// ptModel drives a pageTable and a map[int64]*frame reference side by
// side and fails the moment they disagree. Frames are owned by the
// model, mirroring how shards own them for the table.
type ptModel struct {
	t     *testing.T
	table pageTable
	ref   map[int64]*frame
	free  []*frame
}

func newPTModel(t *testing.T, budget int, skip uint) *ptModel {
	m := &ptModel{t: t, ref: make(map[int64]*frame)}
	m.table.init(budget, skip)
	return m
}

func (m *ptModel) frame() *frame {
	if n := len(m.free); n > 0 {
		f := m.free[n-1]
		m.free = m.free[:n-1]
		return f
	}
	return &frame{page: -1}
}

func (m *ptModel) insert(page int64) {
	if _, ok := m.ref[page]; ok {
		return // residency is unique by construction in the shard
	}
	f := m.frame()
	f.page = page
	m.table.put(f)
	m.ref[page] = f
}

func (m *ptModel) remove(page int64) {
	f, ok := m.ref[page]
	if !ok {
		return
	}
	got := m.table.get(page)
	if got != f {
		m.t.Fatalf("pre-delete lookup(%d) = %v, want frame %p", page, got, f)
	}
	m.table.del(f)
	delete(m.ref, page)
	f.page = -1
	m.free = append(m.free, f)
}

func (m *ptModel) check(probes ...int64) {
	if m.table.len() != len(m.ref) {
		m.t.Fatalf("table len %d, reference %d", m.table.len(), len(m.ref))
	}
	for _, page := range probes {
		got := m.table.get(page)
		want := m.ref[page]
		if got != want {
			m.t.Fatalf("lookup(%d) = %p, reference %p", page, got, want)
		}
		if got != nil && m.table.slots[got.slot] != got {
			m.t.Fatalf("frame for page %d stores slot %d, but that slot holds %p",
				page, got.slot, m.table.slots[got.slot])
		}
	}
}

// checkAll verifies every reference entry and every stored slot index.
func (m *ptModel) checkAll() {
	m.check()
	for page, f := range m.ref {
		if got := m.table.get(page); got != f {
			m.t.Fatalf("lookup(%d) = %p, reference %p", page, got, f)
		}
		if m.table.slots[f.slot] != f {
			m.t.Fatalf("page %d stores slot %d, but that slot holds %p", page, f.slot, m.table.slots[f.slot])
		}
	}
}

// TestPageTableMatchesMapReference replays deterministic pseudo-random
// insert/delete/lookup interleavings against the map reference model,
// over table sizes small enough to stay near the load-factor limit and
// key distributions that collide (multiples of the table size hash near
// each other, forcing long probe chains and backshift cascades). Each
// case runs on a stripe-free table and on one that skips the top three
// hash bits, as a shard of an 8-stripe cache does.
func TestPageTableMatchesMapReference(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int
		keyOf  func(r int64) int64
	}{
		{"uniform", 64, func(r int64) int64 { return r & 0x3FF }},
		// Dense sequential pages: the cache's common case.
		{"sequential", 32, func(r int64) int64 { return r & 0x7F }},
		// Clustered: strided keys that collapse onto few home slots, so
		// deletions backshift across long runs.
		{"clustered", 16, func(r int64) int64 { return (r & 0x1F) << 32 }},
		// Tiny table under churn: grow and wraparound paths.
		{"tiny", 1, func(r int64) int64 { return r & 0xFF }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, skip := range []uint{0, 3} {
				m := newPTModel(t, tc.budget, skip)
				seed := int64(0x9E3779B9)
				next := func() int64 { // xorshift: deterministic, no math/rand dep
					seed ^= seed << 13
					seed ^= seed >> 7
					seed ^= seed << 17
					if seed < 0 {
						return -seed
					}
					return seed
				}
				for i := 0; i < 20000; i++ {
					r := next()
					page := tc.keyOf(next())
					switch r % 3 {
					case 0, 1:
						m.insert(page)
					case 2:
						m.remove(page)
					}
					m.check(page, tc.keyOf(next()))
					if i%997 == 0 {
						m.checkAll()
					}
				}
				m.checkAll()
			}
		})
	}
}

// TestPageTableBackshiftClusters exercises Knuth's deletion directly: a
// block of keys that all hash to neighboring home slots, deleted from
// the front, middle, and back, must leave every survivor reachable with
// a fresh slot index.
func TestPageTableBackshiftClusters(t *testing.T) {
	m := newPTModel(t, 8, 0) // 16 slots
	// 10 keys in one cluster region: probe chains overlap heavily.
	keys := make([]int64, 10)
	for i := range keys {
		keys[i] = int64(i) << 32 // clustered under the fibonacci hash's top bits
		m.insert(keys[i])
	}
	m.checkAll()
	for _, i := range []int{0, 5, 9, 3, 7, 1} {
		m.remove(keys[i])
		m.checkAll()
	}
	// Reinsert into the compacted chains.
	for _, k := range keys {
		m.insert(k)
	}
	m.checkAll()
}

// TestPageTableSteadyStateZeroAllocs pins the install/evict cycle at
// zero allocations once the table has reached its working size.
func TestPageTableSteadyStateZeroAllocs(t *testing.T) {
	m := newPTModel(t, 64, 0)
	for i := int64(0); i < 64; i++ {
		m.insert(i)
	}
	page := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		m.remove(page)
		m.insert(page + 64)
		page++
	})
	if allocs != 0 {
		t.Fatalf("steady-state insert/delete allocates %.1f objects/op, want 0", allocs)
	}
}

// FuzzPageTable interprets the fuzz input as an op stream (two bytes per
// op: action and key) against the reference model. The property test
// above covers structured interleavings; the fuzzer hunts for sequences
// neither of us thought of.
func FuzzPageTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 2, 2, 0, 1})
	f.Add([]byte{0, 0x10, 0, 0x20, 0, 0x30, 1, 0x20, 0, 0x40, 1, 0x10})
	seed := make([]byte, 0, 64)
	for i := 0; i < 32; i++ {
		seed = append(seed, byte(i%3), byte(i*37))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newPTModel(t, 4, 0)
		for i := 0; i+1 < len(data); i += 2 {
			// Spread the one-byte key over a clustered 64-bit space so
			// collisions are common but keys stay distinct.
			page := int64(data[i+1]&0x3F) << 32
			switch data[i] % 3 {
			case 0:
				m.insert(page)
			case 1:
				m.remove(page)
			case 2:
				m.check(page)
			}
		}
		m.checkAll()
	})
}

// TestPageTableGrowth floods one table far past its initial sizing (a
// hash-hot shard absorbing the whole budget) and then drains it: growth
// rehashes must preserve every entry and slot index.
func TestPageTableGrowth(t *testing.T) {
	m := newPTModel(t, 4, 0) // starts at 16 slots
	for i := int64(0); i < 3000; i++ {
		m.insert(i * 7)
	}
	m.checkAll()
	if got := m.table.len(); got != 3000 {
		t.Fatalf("table len %d after 3000 inserts", got)
	}
	for i := int64(0); i < 3000; i += 2 {
		m.remove(i * 7)
	}
	m.checkAll()
}

// TestPageTableSizing pins the budget-derived capacity rule: the table
// holds its expected occupancy at a load factor of one half.
func TestPageTableSizing(t *testing.T) {
	var pt pageTable
	pt.init(4096, 0)
	if got := len(pt.slots); got != 8192 {
		t.Fatalf("init(4096) sized %d slots, want 8192", got)
	}
	pt.init(1, 0)
	if got := len(pt.slots); got != 16 {
		t.Fatalf("init(1) sized %d slots, want the 16-slot floor", got)
	}
}

// TestShardedPageTableProbeDisplacement pins home slots that do not
// alias the stripe hash: every page of one shard shares the hash's top
// stripe bits, so a table homing on those same bits would crowd each
// shard into 1/8 of its slots and probe through one long cluster (a mean
// displacement of ~256 slots here). A well-spread table at this load
// keeps the mean displacement from the home slot at or below one.
func TestShardedPageTableProbeDisplacement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPages = 16384
	cfg.Shards = 8
	c := MustNew(cfg, simdisk.MustNew(simdisk.DefaultParams()))
	resident := int64(cfg.NumPages * 3 / 4)
	c.Read(time.Unix(0, 0), 0, resident*cfg.PageSize)
	if got := c.ResidentPages(); got < int(resident) {
		t.Fatalf("%d pages resident after the fill, want >= %d", got, resident)
	}
	for si, s := range c.shards {
		mask := len(s.table.slots) - 1
		var total, n int
		for i, f := range s.table.slots {
			if f != nil {
				total += (i - s.table.hashSlot(f.page)) & mask
				n++
			}
		}
		if n == 0 {
			t.Fatalf("shard %d holds no pages", si)
		}
		if mean := float64(total) / float64(n); mean > 1 {
			t.Errorf("shard %d: mean probe displacement %.1f slots over %d pages, want <= 1", si, mean, n)
		}
	}
}
