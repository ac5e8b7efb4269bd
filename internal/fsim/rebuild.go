package fsim

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/simdisk"
	"repro/internal/simdisk/sharedq"
)

// memberRebuild is one member's reconstruction inside a RebuildSet: the
// simdisk copy, the port its reads flow through, and its own clock lane.
// In shared disk-queue mode the port is a dedicated queue lane, so
// rebuild traffic contends with every foreground session in the merged
// dispatch — the rebuild-vs-foreground interference the ablation
// measures. In private-view mode the reads run against the store's
// shared array (the default lane's view).
type memberRebuild struct {
	rb     *simdisk.Rebuild
	port   simdisk.Port
	lane   *sharedq.Lane // nil in private-view mode
	clk    *clock.VirtualClock
	member int
	start  time.Time
	end    time.Time
}

// beginRebuild prepares the reconstruction of member failed, covering
// every extent allocated so far. The member is typically dead under the
// configured fault plan, but rebuilding a live (e.g. merely slowed)
// member is allowed — the copy then reads it directly. When the store
// provisions a hot-spare pool (Config.Spares), the spare is claimed from
// it and exhaustion is an error; otherwise the rebuild provisions an
// ad-hoc spare.
func (s *FileStore) beginRebuild(failed int) (*memberRebuild, error) {
	used := s.nextBase.Load()
	var spare *simdisk.Disk
	if s.spares != nil {
		d, err := s.spares.Take()
		if err != nil {
			return nil, fmt.Errorf("fsim: rebuilding member %d: %w", failed, err)
		}
		spare = d
	}
	array := s.array
	if s.queue != nil {
		array = s.qArray
	}
	var rb *simdisk.Rebuild
	var err error
	if spare != nil {
		rb, err = array.NewRebuildOnto(failed, used, spare)
	} else {
		rb, err = array.NewRebuild(failed, used)
	}
	if err != nil {
		if spare != nil {
			s.spares.Put(spare)
		}
		return nil, err
	}
	r := &memberRebuild{rb: rb, member: failed, clk: s.tl.NewLane()}
	r.start = r.clk.Now()
	if s.queue != nil {
		r.lane = s.queue.NewLane(r.clk.Now())
		r.port = r.lane
	} else {
		r.port = s.array
	}
	return r, nil
}

// SparePool exposes the hot-spare pool (nil when Config.Spares is zero).
func (s *FileStore) SparePool() *simdisk.SparePool { return s.spares }

// step copies the member's next block on the rebuild's own lane: its
// reconstruction read flows through the store's disk path (contending
// in the shared queue when one is configured) and its spare write
// chains after. Once no block remains it records the completion time,
// parks the queue lane so a finished rebuild never gates the event
// merge, and reports false.
func (r *memberRebuild) step() bool {
	done, ok := r.rb.Step(r.clk.Now(), r.port)
	if !ok {
		r.end = done
		if r.lane != nil {
			r.lane.Park()
		}
		return false
	}
	r.clk.Set(done)
	return true
}

// release retires the rebuild's queue lane from the merge and its clock
// lane into the store's timeline floor, preserving aggregate elapsed
// time.
func (r *memberRebuild) release(s *FileStore) {
	if r.lane != nil {
		r.lane.Release()
		r.lane = nil
	}
	if r.clk != nil {
		s.tl.ReleaseLane(r.clk)
		r.clk = nil
	}
}

// RebuildMemberResult is one member's rebuild outcome.
type RebuildMemberResult struct {
	// Member is the rebuilt member index.
	Member int
	// Rows is how many stripe-unit blocks the rebuild covered.
	Rows int64
	// Writes is the spare's RebuildWrites when the copy completed; a
	// finished rebuild has Writes == Rows.
	Writes int64
}

// RebuildSet drives several members' rebuilds as one unit — the
// hot-spare-pool story, where a double failure rebuilds both members
// concurrently.
//
// Lifecycle: BeginRebuilds before foreground workers start (the lanes
// must join the merge at a deterministic point), Run concurrently with
// them (it blocks until every copy completes on simulated time) or step
// its Lanes alongside them, and
// Finish only after foreground lanes quiesce — promotion heals the
// members in place, and doing it mid-run would make subsequent timings
// depend on wall-clock interleaving.
type RebuildSet struct {
	store    *FileStore
	rebuilds []*memberRebuild
	results  []RebuildMemberResult
}

// BeginRebuilds prepares one rebuild per listed member. Duplicate
// members are rejected, and with a hot-spare pool configured the whole
// set is refused up front when it would overcommit the pool — no
// half-begun state to unwind at the call site.
func (s *FileStore) BeginRebuilds(members []int) (*RebuildSet, error) {
	seen := make(map[int]bool, len(members))
	for _, m := range members {
		if seen[m] {
			return nil, fmt.Errorf("fsim: duplicate rebuild member %d", m)
		}
		seen[m] = true
	}
	if s.spares != nil && len(members) > s.spares.Available() {
		return nil, fmt.Errorf("fsim: %d rebuilds requested but only %d spares available",
			len(members), s.spares.Available())
	}
	rs := &RebuildSet{store: s}
	for _, m := range members {
		r, err := s.beginRebuild(m)
		if err != nil {
			// Unwind the begun-but-never-run rebuilds: their lanes retire
			// and pooled spares (still untouched) return to the pool.
			for _, begun := range rs.rebuilds {
				begun.release(s)
				if s.spares != nil {
					s.spares.Put(begun.rb.Spare())
				}
			}
			return nil, err
		}
		rs.rebuilds = append(rs.rebuilds, r)
	}
	return rs, nil
}

// RebuildLane is a share of a RebuildSet's copies that a driver steps
// a block at a time alongside foreground sessions: one member in shared
// disk-queue mode, where the conservative event merge needs every queue
// lane advancing; all members back to back in private-view mode, each
// from the same virtual start on its own clock, so they contend for the
// survivors' busy horizons in a fixed order.
type RebuildLane struct{ members []*memberRebuild }

// Lanes splits the set into its lanes.
func (rs *RebuildSet) Lanes() []*RebuildLane {
	var lanes []*RebuildLane
	for i, r := range rs.rebuilds {
		if i == 0 || rs.store.queue != nil {
			lanes = append(lanes, &RebuildLane{})
		}
		l := lanes[len(lanes)-1]
		l.members = append(l.members, r)
	}
	return lanes
}

// Now is the clock of the member the lane is copying (its last member
// once it has finished).
func (l *RebuildLane) Now() time.Time { return l.members[0].clk.Now() }

// Step copies the lane's next block and reports false once every
// member of the lane has finished.
func (l *RebuildLane) Step() bool {
	for !l.members[0].step() {
		if len(l.members) == 1 {
			return false
		}
		l.members = l.members[1:]
	}
	return true
}

// SetWait passes wait to the lane's shared-queue lanes (see
// sharedq.Lane.SetWait); a no-op in private-view mode.
func (l *RebuildLane) SetWait(wait func(served func() bool)) {
	for _, r := range l.members {
		if r.lane != nil {
			r.lane.SetWait(wait)
		}
	}
}

// Run drives every lane's copy to completion, each lane on its own
// goroutine, and returns the latest completion time. The shared
// queue's event-merged dispatch (or, in private-view mode, the single
// lane's fixed order) keeps the result deterministic.
func (rs *RebuildSet) Run() time.Time {
	var wg sync.WaitGroup
	for _, l := range rs.Lanes() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l.Step() {
			}
		}()
	}
	wg.Wait()
	var end time.Time
	for _, r := range rs.rebuilds {
		end = clock.MaxTime(end, r.end)
	}
	return end
}

// Rows returns the total block count across the set.
func (rs *RebuildSet) Rows() int64 {
	var rows int64
	for _, r := range rs.rebuilds {
		rows += r.rb.Rows()
	}
	return rows
}

// Elapsed returns the slowest member's copy duration (zero before Run).
func (rs *RebuildSet) Elapsed() time.Duration {
	var d time.Duration
	for _, r := range rs.rebuilds {
		if !r.end.IsZero() && r.end.Sub(r.start) > d {
			d = r.end.Sub(r.start)
		}
	}
	return d
}

// Finish promotes every spare into its member and records the
// per-member results. Call only after every copy completed and
// foreground lanes quiesced.
func (rs *RebuildSet) Finish() error {
	if rs.results != nil {
		return nil
	}
	results := make([]RebuildMemberResult, 0, len(rs.rebuilds))
	for _, r := range rs.rebuilds {
		res := RebuildMemberResult{
			Member: r.member,
			Rows:   r.rb.Rows(),
			Writes: r.rb.Spare().Stats().RebuildWrites,
		}
		if err := r.rb.Finish(); err != nil {
			return fmt.Errorf("fsim: finishing member %d rebuild: %w", r.member, err)
		}
		r.release(rs.store)
		results = append(results, res)
	}
	rs.results = results
	return nil
}

// Members returns the per-member results (nil before Finish).
func (rs *RebuildSet) Members() []RebuildMemberResult { return rs.results }
