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

// run drives the whole copy on the rebuild's own lane: each block's
// reconstruction read flows through the store's disk path (contending
// in the shared queue when one is configured) and its spare write
// chains after. It records the simulated completion time and parks the
// lane, so a finished rebuild never gates the event merge.
func (r *memberRebuild) run() {
	r.end = r.rb.Run(r.clk.Now(), r.port)
	r.clk.Set(r.end)
	if r.lane != nil {
		r.lane.Park()
	}
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
// them (it blocks until every copy completes on simulated time), and
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

// Run drives every member's copy and returns the latest completion
// time. In shared disk-queue mode the rebuilds run on concurrent
// goroutines — each lane must keep advancing or the conservative event
// merge would wait on the idle ones — and the event-merged dispatch
// keeps the result deterministic. In private-view mode they run
// back to back on the wall clock instead: all start at the same virtual
// instant on their own lanes and contend for the survivors' busy
// horizons in a fixed order, so the merged timings stay a pure function
// of the configuration.
func (rs *RebuildSet) Run() time.Time {
	var end time.Time
	if rs.store.queue != nil {
		var wg sync.WaitGroup
		for _, r := range rs.rebuilds {
			wg.Add(1)
			go func(r *memberRebuild) {
				defer wg.Done()
				r.run()
			}(r)
		}
		wg.Wait()
	} else {
		for _, r := range rs.rebuilds {
			r.run()
		}
	}
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
// per-member results. Call only after Run returned and foreground lanes
// quiesced.
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
