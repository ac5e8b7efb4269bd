// Background write-back: each cache stripe drains its dirty set on its
// own virtual-clock lane through the write-back disk view.
//
// The model follows the OS page-cache writer threads: dirty pages
// accumulate until a stripe reaches Config.WritebackThreshold, and at
// that moment the stripe drains — inline, on the caller that crossed
// the threshold, so when a drain happens is a function of the simulated
// operation sequence alone. The drain collects the dirty set, marks the
// pages clean (the writes are now owned by the disk queue), and submits
// them as one scheduled batch: the disk port's ServeBatch with the
// configured SSTF/SCAN/FCFS policy. Batches are fed to the scheduler in
// raw arrival (dirtying) order, the stripe's dirtyOrder queue: the
// policy does the ordering, so FCFS genuinely services
// first-dirtied-first while SSTF/SCAN reorder by seek distance — the
// ablation separates instead of every policy receiving a pre-sorted
// sweep. The simulated time of each drain is charged to the stripe's
// write-back lane, never to the writer that tripped the threshold:
// write-back overlaps foreground work, which is exactly what
// distinguishes it from the flush-on-close paths (Flush, FlushRange)
// that bill the caller. The one exception is the optional dirty-page
// high-water mark (Config.WritebackHighwater): a writer that saturates
// a stripe's dirty set is stalled until the stripe drains, modelling
// pdflush throttling.
package buffercache

import (
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/simdisk"
)

// wbStripe is one stripe's write-back state. mu serializes the
// stripe's drains (threshold crossings, closes, Quiesce) and guards the
// lane and the drain scratch.
type wbStripe struct {
	mu sync.Mutex
	// lane is the stripe's virtual-time lane: the completion horizon of
	// its drains. Drains advance it, so write-back time merges into an
	// aggregate via max (overlap), not by stalling foreground clocks.
	lane time.Time
	// pages and reqs are the drain's scratch, reused across drains.
	pages []int64
	reqs  []simdisk.Request
}

// maybeWriteback drains shard si when its dirty set has reached the
// threshold. Callers hold no shard lock.
func (c *Cache) maybeWriteback(si, dirtyCount int, now time.Time) {
	if c.wb != nil && dirtyCount >= c.cfg.WritebackThreshold {
		c.drainShard(si, now)
	}
}

// SignalWriteback drains every stripe's dirty set, regardless of
// thresholds, on the write-back lanes — the async half of a close: the
// caller hands its dirty pages to the background queue and is charged
// nothing. No-op without write-back.
func (c *Cache) SignalWriteback(now time.Time) {
	if c.wb == nil {
		return
	}
	for si := range c.shards {
		c.drainShard(si, now)
	}
}

// drainShard collects stripe si's dirty pages in arrival (dirtying)
// order, marks them clean, and submits them to the disk queue as
// policy-ordered batches on the stripe's write-back lane, starting no
// earlier than at. It returns the number of pages retired and the
// lane's completion horizon.
func (c *Cache) drainShard(si int, at time.Time) (int, time.Time) {
	st := &c.wb[si]
	st.mu.Lock()
	defer st.mu.Unlock()
	s := c.shards[si]
	total := 0
	for {
		s.mu.Lock()
		want := s.dirty
		if c.cfg.WritebackBatch > 0 && want > c.cfg.WritebackBatch {
			want = c.cfg.WritebackBatch
		}
		pages := st.pages[:0]
		// Consume the arrival queue front to back, dropping stale entries
		// (pages cleaned or evicted since they were queued). Stale entries
		// are consumed even once the batch is full — and in particular when
		// want is 0 — so a drain always trims the queue up to its first
		// live entry; a stripe whose dirty pages all got cleaned by
		// eviction or flush cannot pin an ever-growing queue.
		consumed := 0
		for consumed < len(s.dirtyOrder) {
			e := s.dirtyOrder[consumed]
			f := s.table.get(e.page)
			if f == nil || !f.inWBQueue || f.wbSeq != e.seq {
				consumed++
				continue
			}
			if !f.dirty {
				f.inWBQueue = false
				consumed++
				continue
			}
			if len(pages) >= want {
				break
			}
			f.inWBQueue = false
			f.dirty = false
			s.dirty--
			pages = append(pages, e.page)
			consumed++
		}
		kept := copy(s.dirtyOrder, s.dirtyOrder[consumed:])
		s.dirtyOrder = s.dirtyOrder[:kept]
		st.pages = pages
		if n := len(pages); n > 0 {
			s.stats.DirtyFlushes += int64(n)
			s.stats.WritebackPages += int64(n)
			s.stats.WritebackBatches++
			s.stats.BytesToDisk += int64(n) * c.cfg.PageSize
		}
		s.mu.Unlock()
		if len(pages) == 0 {
			return total, st.lane
		}
		total += len(pages)

		reqs := st.reqs[:0]
		for _, page := range pages {
			reqs = append(reqs, simdisk.Request{
				Offset: page * c.cfg.PageSize,
				Length: c.cfg.PageSize,
				Write:  true,
			})
		}
		st.reqs = reqs
		_, end := c.wbBackend.ServeBatch(clock.MaxTime(st.lane, at), reqs, c.cfg.WritebackPolicy)
		st.lane = end
	}
}

// stallHighwater models pdflush throttling: the foreground writer that
// pushed stripe si's dirty set to the high-water mark synchronously
// waits for the stripe to drain through the background write-back
// queue, and its clock advances to the drain's completion horizon. The
// drain itself still runs on the stripe's write-back lane.
func (c *Cache) stallHighwater(si int, now time.Time) time.Time {
	_, end := c.drainShard(si, now)
	s := c.shards[si]
	s.mu.Lock()
	s.stats.WritebackThrottles++
	s.mu.Unlock()
	if end.After(now) {
		return end
	}
	return now
}

// Quiesce drains every stripe's dirty set through the write-back lanes,
// looping until the cache holds no dirty page, and returns the furthest
// write-back horizon. Callers use it at the end of a run (fsim's Settle)
// so all buffered writes reach the modeled disk; foreground lanes are
// not charged. Without write-back it is a no-op returning now.
func (c *Cache) Quiesce(now time.Time) time.Time {
	if c.wb == nil {
		return now
	}
	for {
		drained := 0
		for si := range c.shards {
			n, _ := c.drainShard(si, now)
			drained += n
		}
		if drained == 0 && c.DirtyPages() == 0 {
			break
		}
	}
	return clock.MaxTime(now, c.WritebackHorizon())
}

// WritebackHorizon returns the furthest simulated time any stripe's
// background flushing has reached (zero time when write-back is off or
// idle): the end-to-end completion horizon of the buffered writes.
func (c *Cache) WritebackHorizon() time.Time {
	var horizon time.Time
	if c.wb == nil {
		return horizon
	}
	for i := range c.wb {
		st := &c.wb[i]
		st.mu.Lock()
		horizon = clock.MaxTime(horizon, st.lane)
		st.mu.Unlock()
	}
	return horizon
}
