// Package sharedq is the shared disk-queue subsystem: a discrete-event
// merge where the disk requests of many virtual-time lanes meet in one
// simulated command queue instead of each lane owning a private
// disk-timing view.
//
// The private-view model (fsim's default) is optimistic under
// concurrency: eight workers never queue behind each other, seek
// interleaving between streams is invisible, and the FCFS/SSTF/SCAN
// ablation only separates on the background write-back drain. This
// package makes contention real while keeping the repository's
// determinism bar: the dispatch order is a pure function of the lanes'
// simulated timestamps, never of goroutine scheduling.
//
// # Model
//
// A Queue fronts one Device (a *simdisk.Disk or *simdisk.Array — the
// existing serviceLocked/AccessRun cost model is reused unchanged).
// Each concurrent actor holds a Lane and submits timestamped requests;
// the queue dispatches the pending entry chosen by the configured
// scheduling policy among those that have "arrived" by the decision
// time, services it on the device (whose busy horizon turns into
// queueing delay exactly as a real command queue would), and hands the
// completion time back to blocked submitters.
//
// # Conservative dispatch
//
// Dispatch is conservative in the parallel-discrete-event sense: an
// entry is served only when no lane can still submit a request that
// should have gone first. Each lane carries a free bound — the earliest
// simulated time at which it could still submit:
//
//   - a lane blocked in a synchronous submission cannot submit anything
//     else, so it never gates dispatch;
//   - a parked lane (see Lane.Park) has promised not to submit until
//     something external wakes it, so it does not gate dispatch either;
//   - any other lane bounds future arrivals by max(horizon, last
//     arrival), where the horizon advances via Lane.Advance — the hook
//     fsim calls at the start of every operation.
//
// The decision time for the next dispatch is S = max(device busy
// horizon, earliest pending arrival). Once every gating lane's free
// bound is strictly past S, the serving set {pending entries with
// arrival <= S} is complete, and the policy picks from it: FCFS by
// (arrival, lane, sequence), SSTF by seek distance from the current
// head, SCAN by the elevator sweep with a persistent direction. All tie
// breaks are total orders, so the chosen sequence is identical across
// runs regardless of wall-clock interleaving.
//
// # Asynchronous submissions
//
// Requests issued while the caller holds a cache shard lock (eviction
// write-backs, readahead) must not block: a lane waiting on a shard
// mutex held by another lane could otherwise never produce its
// earlier-timestamped request, deadlocking the merge on a causality
// inversion. Those go through AccessAsync/AccessRunAsync: enqueued
// fire-and-forget, with the submission time returned as the completion
// stand-in. When the queue has exactly one registered lane and nothing
// pending, every submission — sync or async — is served inline on the
// device, which makes the single-lane shared queue bit-identical to the
// private-view path.
package sharedq

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/simdisk"
)

// Device is the disk model behind the queue: a simdisk.Port that also
// reports its head position for the seek-ordered policies. Both
// *simdisk.Disk and *simdisk.Array satisfy it; the queue adds ordering
// and contention on top, never cost arithmetic of its own.
type Device interface {
	simdisk.Port
	Head() int64
}

// Stats counts what moved through the queue. Snapshot via Queue.Stats.
type Stats struct {
	// Dispatches is every served entry, including single-lane inline
	// serves; Sync/Async split it by submission kind (batches count as
	// sync — the flush sweep blocks on them).
	Dispatches      int64
	SyncDispatches  int64
	AsyncDispatches int64
	// Batches is the subset of dispatches that were ServeBatch sweeps.
	Batches int64
	// QueueDelay accumulates, over every queued dispatch (sync and
	// async alike), the time an entry spent waiting behind other lanes'
	// work: completion minus arrival minus pure service. This is the
	// contention the private model could not see.
	QueueDelay time.Duration
	// MaxPending is the high-water mark of the pending set.
	MaxPending int
}

// Queue is the shared command queue. Construct with New; all methods
// are safe for concurrent use by the lanes' goroutines.
type Queue struct {
	dev    Device
	policy simdisk.SchedPolicy

	mu   sync.Mutex
	cond *sync.Cond
	// lanes is the registered, unreleased lane set — the gate domain.
	lanes map[*Lane]struct{}
	// pending holds submitted, not-yet-served entries across all lanes.
	pending []*entry
	// busy is the completion horizon of dispatched work: the simulated
	// instant the device frees up (max over completions for arrays).
	busy time.Time
	// edge is the latest arrival ever dispatched. Lanes joining
	// mid-flight start at or past it, so a newcomer cannot submit into
	// the already-served past.
	edge time.Time
	// scanUp is SCAN's persistent elevator direction.
	scanUp bool
	nextID int
	stats  Stats
}

// Lane is one actor's port into the queue. A Lane must be used by a
// single goroutine at a time (the same contract as fsim.Session). It is
// a simdisk.Port plus the fire-and-forget forms buffercache's
// AsyncBackend asks for, so a cache IO can sit directly on it.
type Lane struct {
	q  *Queue
	id int
	// horizon is the lane's promise: no future submission arrives
	// strictly before it (advanced by Advance at each operation start).
	horizon time.Time
	// lastArrival enforces per-lane arrival monotonicity; together with
	// horizon it forms the free bound the dispatch gate checks.
	lastArrival time.Time
	// seq numbers this lane's submissions for the FCFS tie break.
	seq uint64
	// syncPending counts blocking submissions in flight (0 or 1); such
	// a lane cannot submit more, so it never gates dispatch.
	syncPending int
	parked      bool
	wait        func(served func() bool) // see SetWait
}

// opKind selects how an entry hits the device when dispatched.
type opKind uint8

const (
	opReq opKind = iota
	opRun
	opBatch
)

// entry is one submitted request (or request batch) waiting in the
// shared queue.
type entry struct {
	lane    *Lane
	seq     uint64
	kind    opKind
	arrival time.Time

	req    simdisk.Request
	run    simdisk.Run
	reqs   []simdisk.Request   // opBatch
	policy simdisk.SchedPolicy // opBatch: the submitter's sweep policy

	sync    bool
	served  bool
	done    time.Time
	service time.Duration
	results []simdisk.BatchResult // opBatch
}

// offset is the entry's leading device offset, the policy sort key.
func (e *entry) offset() int64 {
	switch e.kind {
	case opRun:
		return e.run.Offset
	case opBatch:
		return e.reqs[0].Offset
	default:
		return e.req.Offset
	}
}

// New builds a queue over dev ordered by policy.
func New(dev Device, policy simdisk.SchedPolicy) (*Queue, error) {
	if dev == nil {
		return nil, fmt.Errorf("sharedq: nil device")
	}
	if !policy.Valid() {
		return nil, fmt.Errorf("sharedq: invalid scheduling policy %d", int(policy))
	}
	q := &Queue{
		dev:    dev,
		policy: policy,
		lanes:  make(map[*Lane]struct{}),
		scanUp: true,
	}
	q.cond = sync.NewCond(&q.mu)
	return q, nil
}

// MustNew is New for validated configurations.
func MustNew(dev Device, policy simdisk.SchedPolicy) *Queue {
	q, err := New(dev, policy)
	if err != nil {
		panic(err)
	}
	return q
}

// Policy returns the queue's scheduling policy.
func (q *Queue) Policy() simdisk.SchedPolicy { return q.policy }

// Stats snapshots the queue counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Lanes returns the number of registered lanes.
func (q *Queue) Lanes() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.lanes)
}

// NewLane registers a lane whose submissions begin no earlier than
// start. A lane joining an in-flight merge is floored at the queue's
// dispatch edge: it starts "now", not in the already-served past.
func (q *Queue) NewLane(start time.Time) *Lane {
	q.mu.Lock()
	defer q.mu.Unlock()
	l := &Lane{
		q:           q,
		id:          q.nextID,
		horizon:     clock.MaxTime(start, q.edge),
		lastArrival: clock.MaxTime(start, q.edge),
	}
	q.nextID++
	q.lanes[l] = struct{}{}
	return l
}

// Advance is the lane's lookahead promise: no future submission will
// arrive strictly before now. fsim calls it at the start of every
// operation; it also unparks the lane. Moving backwards is a no-op.
func (l *Lane) Advance(now time.Time) {
	q := l.q
	q.mu.Lock()
	l.parked = false
	if now.After(l.horizon) {
		l.horizon = now
	}
	q.dispatchLocked()
	q.mu.Unlock()
}

// Park declares the lane idle: it will not submit again until an
// external event (a new replay record, a request on the connection)
// wakes it through Advance or a submission. Parked lanes do not gate
// dispatch — this is what lets the merge finish when workers complete
// at different times.
func (l *Lane) Park() {
	q := l.q
	q.mu.Lock()
	l.parked = true
	q.dispatchLocked()
	q.mu.Unlock()
}

// Release unregisters the lane. Any of its still-pending asynchronous
// entries stay in the queue and are served normally; the lane must not
// submit after Release.
func (l *Lane) Release() {
	q := l.q
	q.mu.Lock()
	delete(q.lanes, l)
	l.parked = true
	q.dispatchLocked()
	q.mu.Unlock()
}

// Access submits a blocking request: the caller's simulated operation
// cannot proceed until the device has served it. The returned
// completion includes any time spent queued behind other lanes.
func (l *Lane) Access(now time.Time, req simdisk.Request) (time.Time, time.Duration) {
	done, svc, _ := l.submit(now, entry{kind: opReq, req: req, sync: true})
	return done, svc
}

// AccessRun submits a blocking contiguous run, the cold path's bulk
// shape. The run is one scheduling unit: the policy orders it against
// other entries by its leading offset, and the device bills it through
// AccessRun unchanged.
func (l *Lane) AccessRun(now time.Time, r simdisk.Run) (time.Time, time.Duration) {
	done, svc, _ := l.submit(now, entry{kind: opRun, run: r, sync: true})
	return done, svc
}

// ServeBatch submits a blocking sweep (a flush of many dirty pages) as
// one scheduling unit, ordered internally by the submitter's policy
// when dispatched.
func (l *Lane) ServeBatch(now time.Time, reqs []simdisk.Request, policy simdisk.SchedPolicy) ([]simdisk.BatchResult, time.Time) {
	if len(reqs) == 0 {
		return nil, now
	}
	done, _, res := l.submit(now, entry{kind: opBatch, reqs: reqs, policy: policy, sync: true})
	return res, done
}

// AccessAsync submits a fire-and-forget request — an eviction
// write-back or a readahead issued under a cache shard lock, where
// blocking would deadlock the merge. With one lane it is served inline
// and the true completion returns (preserving private-path equivalence);
// with contention it is enqueued and the submission time stands in.
func (l *Lane) AccessAsync(now time.Time, req simdisk.Request) time.Time {
	done, _, _ := l.submit(now, entry{kind: opReq, req: req})
	return done
}

// AccessRunAsync is AccessAsync for contiguous runs.
func (l *Lane) AccessRunAsync(now time.Time, r simdisk.Run) time.Time {
	done, _, _ := l.submit(now, entry{kind: opRun, run: r})
	return done
}

// SetWait installs the lane's wait hook, for drivers that step every
// lane on one goroutine; call it before the lane's first submission. A
// synchronous submission that cannot be served yet then calls wait,
// with the queue unlocked, instead of blocking, until its entry is
// served: served reports whether it has been, and the driver steps
// other lanes meanwhile so the dispatch gate can open.
func (l *Lane) SetWait(wait func(served func() bool)) { l.wait = wait }

// submit is the one submission body behind the Lane methods. It clamps
// the arrival, then either serves e inline (l is the sole lane and
// nothing is pending) or enqueues it, runs the dispatch gate, and — for
// a sync entry — waits until it is served, through the lane's wait hook
// when one is set. An async entry that had to
// queue returns its arrival as the completion stand-in. e arrives by
// value and is copied to the heap only when it is enqueued, so the
// sole-lane path allocates nothing; a queued batch also takes its own
// copy of the requests, so no pending entry aliases caller memory.
func (l *Lane) submit(now time.Time, e entry) (time.Time, time.Duration, []simdisk.BatchResult) {
	q := l.q
	q.mu.Lock()
	defer q.mu.Unlock()
	e.lane = l
	e.arrival = l.clampLocked(now)
	l.parked = false
	l.lastArrival = e.arrival
	if q.soleLocked(l) {
		q.serveLocked(&e)
		return e.done, e.service, e.results
	}
	p := new(entry)
	*p = e
	if p.kind == opBatch {
		p.reqs = append([]simdisk.Request(nil), p.reqs...)
	}
	p.seq = l.seq
	l.seq++
	if p.sync {
		l.syncPending++
	}
	q.pending = append(q.pending, p)
	if len(q.pending) > q.stats.MaxPending {
		q.stats.MaxPending = len(q.pending)
	}
	q.dispatchLocked()
	if !p.sync {
		return p.arrival, 0, nil
	}
	for !p.served {
		if l.wait == nil {
			q.cond.Wait()
			continue
		}
		q.mu.Unlock()
		l.wait(func() bool {
			q.mu.Lock()
			defer q.mu.Unlock()
			return p.served
		})
		q.mu.Lock()
	}
	return p.done, p.service, p.results
}

// clampLocked enforces per-lane arrival monotonicity: a submission never
// lands before the lane's promise horizon or its previous arrival.
func (l *Lane) clampLocked(now time.Time) time.Time {
	now = clock.MaxTime(now, l.horizon)
	return clock.MaxTime(now, l.lastArrival)
}

// soleLocked reports whether l is the only registered lane and nothing
// is pending — the inline fast path that makes a single-lane shared
// queue bit-identical to a private device.
func (q *Queue) soleLocked(l *Lane) bool {
	if len(q.pending) != 0 || len(q.lanes) != 1 {
		return false
	}
	_, ok := q.lanes[l]
	return ok
}

// dispatchLocked serves every entry that is safe to serve, then wakes
// blocked submitters if anything completed. Called after every state
// change (submit, advance, park, release) — the gate only ever opens on
// one of those.
func (q *Queue) dispatchLocked() {
	served := false
	for {
		e := q.selectLocked()
		if e == nil {
			break
		}
		for i, p := range q.pending {
			if p == e {
				q.pending = append(q.pending[:i], q.pending[i+1:]...)
				break
			}
		}
		q.serveLocked(e)
		if e.sync {
			e.lane.syncPending--
		}
		// Async submissions (eviction write-backs, readahead) wait behind
		// other lanes' work just like sync ones do — no caller blocks on
		// the delay, but it is contention all the same, so both kinds
		// accrue. Inline sole-lane serves never queue and add
		// nothing.
		if w := e.done.Sub(e.arrival) - e.service; w > 0 {
			q.stats.QueueDelay += w
		}
		served = true
	}
	if served {
		q.cond.Broadcast()
	}
}

// selectLocked picks the next entry to serve, or nil when none is safe:
// the conservative gate plus the policy choice.
func (q *Queue) selectLocked() *entry {
	if len(q.pending) == 0 {
		return nil
	}
	earliest := q.pending[0].arrival
	for _, e := range q.pending[1:] {
		earliest = clock.MinTime(earliest, e.arrival)
	}
	s := clock.MaxTime(q.busy, earliest)
	// The gate: every lane that could still submit must be provably past
	// the decision time, else a not-yet-visible earlier request could
	// exist and the serving set is not complete.
	for l := range q.lanes {
		if l.parked || l.syncPending > 0 {
			continue
		}
		if !clock.MaxTime(l.horizon, l.lastArrival).After(s) {
			return nil
		}
	}
	return q.pickLocked(s)
}

// pickLocked chooses among entries arrived by s under the queue policy.
// Every comparison bottoms out in (arrival, lane id, sequence) — a
// total order — so the choice is deterministic whatever the wall-clock
// submission interleaving was.
func (q *Queue) pickLocked(s time.Time) *entry {
	var best *entry
	head := q.dev.Head()
	better := func(e, b *entry) bool {
		switch q.policy {
		case simdisk.SSTF:
			de, db := absDist(e.offset(), head), absDist(b.offset(), head)
			if de != db {
				return de < db
			}
		case simdisk.SCAN:
			eUp, bUp := e.offset() >= head, b.offset() >= head
			if q.scanUp {
				if eUp != bUp {
					return eUp // sweep up before turning around
				}
				if e.offset() != b.offset() {
					if eUp {
						return e.offset() < b.offset()
					}
					return e.offset() > b.offset()
				}
			} else {
				down := func(off int64) bool { return off <= head }
				if down(e.offset()) != down(b.offset()) {
					return down(e.offset())
				}
				if e.offset() != b.offset() {
					if down(e.offset()) {
						return e.offset() > b.offset()
					}
					return e.offset() < b.offset()
				}
			}
		}
		return arrivalLess(e, b)
	}
	for _, e := range q.pending {
		if e.arrival.After(s) {
			continue
		}
		if best == nil || better(e, best) {
			best = e
		}
	}
	if best != nil && q.policy == simdisk.SCAN {
		// Persist the elevator direction the chosen dispatch implies.
		if best.offset() > head {
			q.scanUp = true
		} else if best.offset() < head {
			q.scanUp = false
		}
	}
	return best
}

// arrivalLess is the FCFS total order: arrival, then lane id, then the
// lane-local submission sequence.
func arrivalLess(e, b *entry) bool {
	if !e.arrival.Equal(b.arrival) {
		return e.arrival.Before(b.arrival)
	}
	if e.lane.id != b.lane.id {
		return e.lane.id < b.lane.id
	}
	return e.seq < b.seq
}

func absDist(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// serveLocked services e on the device at its arrival time (the
// device's busy horizon converts contention into queueing delay) and
// books the dispatch: the queue's busy horizon and dispatch edge, and
// the counters. The sole-lane inline serve and the queued dispatch both
// go through it.
func (q *Queue) serveLocked(e *entry) {
	switch e.kind {
	case opRun:
		e.done, e.service = q.dev.AccessRun(e.arrival, e.run)
	case opBatch:
		var svc time.Duration
		e.results, e.done = q.dev.ServeBatch(e.arrival, e.reqs, e.policy)
		for _, r := range e.results {
			svc += r.Service
		}
		e.service = svc
		q.stats.Batches++
	default:
		e.done, e.service = q.dev.Access(e.arrival, e.req)
	}
	e.served = true
	q.busy = clock.MaxTime(q.busy, e.done)
	q.edge = clock.MaxTime(q.edge, e.arrival)
	q.stats.Dispatches++
	if e.sync {
		q.stats.SyncDispatches++
	} else {
		q.stats.AsyncDispatches++
	}
}
