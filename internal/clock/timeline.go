package clock

import (
	"sync"
	"time"
)

// Timeline is a set of virtual-clock lanes that together model a
// parallel machine's simulated time. Each concurrent actor — a replay
// worker, a server connection, a stripe's write-back — advances its own
// lane independently; the timeline merges them with max-over-lanes, the
// overlap rule: work on different lanes happens at the same simulated
// time, so the aggregate elapsed time of a parallel run is the longest
// lane, not the sum of all lanes.
//
// This is the layer that turns the repository's wall-parallel replays
// into simulated-parallel ones. Before it, every goroutine charged its
// latency to one shared VirtualClock, so simulated time serialized even
// when execution did not.
type Timeline struct {
	start time.Time

	mu    sync.Mutex
	lanes []*VirtualClock
	// floor retains the final time of released lanes, so the merge never
	// forgets work done by workers that have since gone away.
	floor time.Time
}

// NewTimeline returns a timeline whose lanes start at start.
func NewTimeline(start time.Time) *Timeline {
	return &Timeline{start: start}
}

// Start returns the timeline's origin.
func (t *Timeline) Start() time.Time { return t.start }

// NewLane adds a lane starting at the timeline's current MaxNow — a
// worker joining an in-flight simulation begins "now", not at the
// origin. On a fresh timeline that is the start time.
func (t *Timeline) NewLane() *VirtualClock {
	t.mu.Lock()
	defer t.mu.Unlock()
	lane := NewVirtualClock(t.maxNowLocked())
	t.lanes = append(t.lanes, lane)
	return lane
}

// Lanes returns the number of lanes.
func (t *Timeline) Lanes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.lanes)
}

// Lane returns lane i in creation order.
func (t *Timeline) Lane(i int) *VirtualClock {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lanes[i]
}

// maxNowLocked computes the merge under t.mu.
func (t *Timeline) maxNowLocked() time.Time {
	now := t.start
	if t.floor.After(now) {
		now = t.floor
	}
	for _, lane := range t.lanes {
		if n := lane.Now(); n.After(now) {
			now = n
		}
	}
	return now
}

// ReleaseLane retires a lane whose worker is done: its final time folds
// into the merge floor (MaxNow never decreases) and the lane itself is
// dropped, so long-lived timelines — a server giving every connection a
// lane — do not accumulate dead clocks. Releasing a lane the timeline
// does not hold is a no-op.
func (t *Timeline) ReleaseLane(lane *VirtualClock) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, l := range t.lanes {
		if l == lane {
			if n := lane.Now(); n.After(t.floor) {
				t.floor = n
			}
			t.lanes = append(t.lanes[:i], t.lanes[i+1:]...)
			return
		}
	}
}

// MaxNow merges the lanes: the simulated time of the machine as a whole
// is the furthest any lane has advanced (overlapped work counts once).
func (t *Timeline) MaxNow() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.maxNowLocked()
}

// Elapsed is the aggregate simulated elapsed time: MaxNow minus start.
func (t *Timeline) Elapsed() time.Duration {
	return t.MaxNow().Sub(t.start)
}

// Align is a barrier merge: every lane jumps forward to the current
// MaxNow (no lane moves backwards), and that instant is returned.
// Callers use it at synchronization points — the end of a parallel
// phase — before charging sequential work.
func (t *Timeline) Align() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.maxNowLocked()
	for _, lane := range t.lanes {
		lane.Set(now)
	}
	return now
}

// MaxTime returns the later of a and b — the two-clock merge rule,
// exported for callers combining horizons outside a Timeline.
func MaxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// MinTime returns the earlier of a and b — the dual of MaxTime, used by
// event merges (the shared disk queue) that pop the earliest pending
// timestamp across lanes.
func MinTime(a, b time.Time) time.Time {
	if b.Before(a) {
		return b
	}
	return a
}
