package tracesim

import (
	"cmp"
	"fmt"
	"iter"
	"maps"
	"slices"
	"time"

	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// laneStore is the store capability concurrent replay uses to give each
// worker its own virtual timeline; *fsim.FileStore implements it. Stores
// without it (the OS passthrough) fall back to shared-clock replay.
type laneStore interface {
	NewSession() *fsim.Session
	Settle() (time.Time, time.Duration)
}

// kernel is the one replay loop behind ReplayConcurrent and
// ReplayStream. It runs every lane of a replay on the calling
// goroutine: a lane is one traced process's replay on its own session
// (or a member rebuild's copy), held as a coroutine. The kernel always
// resumes the ready lane with the smallest virtual clock, ties going to
// the lower key (the PID; rebuild lanes come after every process), so
// the order in which lanes reach the shared cache and disk queue is a
// function of simulated time alone, never of goroutine scheduling.
type kernel struct {
	store     fsim.Store
	ls        laneStore // nil on stores without sessions
	sessions  []*fsim.Session
	rec       recoveryStore // nil on stores without recovery accounting
	recBefore fsim.RecoveryStats
	lanes     []*lane
}

// lane is one coroutine of the kernel. A resume runs it to its next
// yield: the end of a step (nil), or a synchronous shared-queue
// submission that must wait (the queue's served predicate; the kernel
// skips the lane until it reports true).
type lane struct {
	key    uint64
	now    func() time.Time
	at     time.Time // now() as of the lane's last yield
	resume func() (func() bool, bool)
	stop   func()
	wait   func() bool
	done   bool
	err    error
	rep    *Report   // nil for rebuild lanes
	queue  *recQueue // ReplayStream's lookahead
}

// newKernel starts a replay on store, taking the store's recovery tally
// before the first lane runs.
func newKernel(store fsim.Store) *kernel {
	k := &kernel{store: store}
	k.ls, _ = store.(laneStore)
	if k.rec, _ = store.(recoveryStore); k.rec != nil {
		k.recBefore = k.rec.RecoveryStats()
	}
	return k
}

// start adds a lane whose coroutine installs its wait hook through
// setWait (when non-nil) and runs body, which calls stepped after each
// step and stops once stepped reports false.
func (k *kernel) start(key uint64, now func() time.Time, setWait func(func(func() bool)), body func(stepped func() bool)) *lane {
	l := &lane{key: key, now: now, at: now()}
	l.resume, l.stop = iter.Pull(func(yield func(func() bool) bool) {
		if setWait != nil {
			setWait(func(served func() bool) { yield(served) })
		}
		body(func() bool { return yield(nil) })
	})
	k.lanes = append(k.lanes, l)
	return l
}

// addProcess opens process pid's lane, replaying recs into rep: on a new
// session of a session-capable store, or on the shared store, ordered
// by the lane's elapsed time.
func (k *kernel) addProcess(rp *Replayer, pid uint32, rep *Report, sample string, recs iter.Seq[*trace.Record]) *lane {
	st := k.store
	now := func() time.Time { return time.Time{}.Add(rep.Elapsed) }
	var setWait func(func(func() bool))
	if k.ls != nil {
		sess := k.ls.NewSession()
		k.sessions = append(k.sessions, sess)
		st, now, setWait = sess, sess.Clock().Now, sess.SetWait
	}
	var l *lane
	l = k.start(uint64(pid), now, setWait, func(stepped func() bool) {
		l.err = rp.replayLane(st, rep, sample, pid, recs, stepped)
	})
	l.rep = rep
	return l
}

// step resumes l until its next yield.
func (l *lane) step() {
	w, ok := l.resume()
	l.wait, l.done, l.at = w, !ok, l.now()
}

// ready reports whether l can be resumed: not finished, and not waiting
// on an entry the shared queue has yet to serve.
func (l *lane) ready() bool {
	if l.wait != nil && l.wait() {
		l.wait = nil
	}
	return !l.done && l.wait == nil
}

// next returns the ready lane to resume, or nil once every lane has
// finished. A lane waits only behind the dispatch gate, which opens once
// every other lane waits or has parked, so some lane is always ready.
func (k *kernel) next() *lane {
	var best *lane
	for _, l := range k.lanes {
		if l.ready() && (best == nil || l.at.Before(best.at) || l.at.Equal(best.at) && l.key < best.key) {
			best = l
		}
	}
	if best == nil && slices.ContainsFunc(k.lanes, func(l *lane) bool { return !l.done }) {
		panic("tracesim: every lane waits on the shared disk queue")
	}
	return best
}

// release ends every lane's coroutine (a no-op for finished ones) and
// retires its session; the lanes' final times fold into the timeline,
// so repeated replays on one store do not accumulate dead lanes.
func (k *kernel) release() {
	for _, l := range k.lanes {
		l.stop()
	}
	for _, sess := range k.sessions {
		sess.Release()
	}
}

// ReplayConcurrent replays a multi-process trace with one lane per
// process id, each with its own file handle — the execution structure
// of the traced parallel applications (Pgrep's four workers, §3.1).
// Records keep their per-PID order; the kernel interleaves the
// processes in virtual-time order, so the replay is deterministic even
// where their footprints overlap in the shared cache.
//
// On a session-capable store each worker replays on its own
// virtual-time lane with a private disk view (or a lane into the shared
// disk queue), so the workers are simulated-parallel: the merged
// report's Elapsed is the longest lane plus the final settle
// (max-over-workers, the overlap rule), while WorkerTime keeps the
// summed view. The aggregate report merges all processes.
func (rp *Replayer) ReplayConcurrent(appName string, tr *trace.Trace) (*Report, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if err := rp.Prepare(tr); err != nil {
		return nil, fmt.Errorf("tracesim: preparing sample file: %w", err)
	}

	// Partition records by PID, preserving order, and count each PID's
	// request rows.
	byPID := make(map[uint32][]*trace.Record)
	rowsOf := make(map[uint32]int)
	total := 0
	for i := range tr.Records {
		rec := &tr.Records[i]
		byPID[rec.PID] = append(byPID[rec.PID], rec)
		rowsOf[rec.PID] += dataOpRows(rec)
		total += dataOpRows(rec)
	}

	// Every lane appends its rows into its own window of one array, in
	// PID order, so the merged rows need no copy.
	rows := make([]RequestTiming, total)
	k := newKernel(rp.store)
	off := 0
	for _, pid := range slices.Sorted(maps.Keys(byPID)) {
		n := rowsOf[pid]
		rep := &Report{Requests: rows[off : off : off+n]}
		off += n
		k.addProcess(rp, pid, rep, tr.Header.SampleFile, slices.Values(byPID[pid]))
	}

	// Requested member rebuilds join as lanes too, keyed after every
	// process: the copies stream through the store's disk path alongside
	// the foreground workers, so rebuild-vs-foreground contention lands
	// in the merged timings.
	var rb *fsim.RebuildSet
	if len(rp.RebuildMembers) > 0 {
		rs, ok := rp.store.(rebuildStore)
		if !ok {
			k.release()
			return nil, fmt.Errorf("tracesim: store %T cannot rebuild a member", rp.store)
		}
		var err error
		if rb, err = rs.BeginRebuilds(rp.RebuildMembers); err != nil {
			k.release()
			return nil, fmt.Errorf("tracesim: starting rebuild: %w", err)
		}
		for i, rl := range rb.Lanes() {
			k.start(1<<32+uint64(i), rl.Now, rl.SetWait, func(stepped func() bool) {
				for rl.Step() && stepped() {
				}
			})
		}
	}

	for l := k.next(); l != nil; l = k.next() {
		l.step()
	}
	return k.merge(appName, rows, 0, rb)
}

// replayLane is the body of a process lane in both concurrent replays:
// it executes one process's records, in order, against st (the lane's
// session, or the shared store) into rep, calling stepped after each
// record (and returning once stepped reports false), and stops at the
// first error, positioned by PID and the lane's record index. A lane
// whose first data operation precedes its own open record inherits an
// implicit open, as the shared-handle traces of the paper do.
func (rp *Replayer) replayLane(st fsim.Store, rep *Report, sample string, pid uint32, recs iter.Seq[*trace.Record], stepped func() bool) error {
	var f fsim.File
	var buf []byte
	defer func() {
		if f != nil {
			f.Close()
		}
		if sess, ok := st.(*fsim.Session); ok {
			// Out of records forever: park the lane so a shared disk
			// queue stops waiting for this worker (no-op otherwise).
			sess.Idle()
		}
	}()
	i := 0
	for rec := range recs {
		// Trace.Validate and the v2 scanner check records; v1 records
		// stream in raw, so guard the fields replay depends on.
		if !rec.Op.Valid() || rec.Count == 0 {
			return fmt.Errorf("tracesim: pid %d record %d: invalid record (op %d, count %d)", pid, i, rec.Op, rec.Count)
		}
		if f == nil && rec.Op != trace.OpOpen {
			// Implicit open: multi-process traces often record one open
			// for the group.
			file, dur, err := st.Open(sample)
			if err != nil {
				return fmt.Errorf("tracesim: pid %d record %d (%s): %w", pid, i, rec.Op, err)
			}
			f = file
			rep.Open.AddDuration(dur)
			rep.Elapsed += dur
		}
		for c := uint32(0); c < rec.Count; c++ {
			d, err := rp.step(st, rep, &f, &buf, rec, sample)
			if err != nil {
				return fmt.Errorf("tracesim: pid %d record %d (%s): %w", pid, i, rec.Op, err)
			}
			rep.Elapsed += d
		}
		i++
		if !stepped() {
			break
		}
	}
	return nil
}

// merge folds the process lanes' reports, in PID order, into one
// report and releases the lanes; it returns the first lane error, in
// PID order, instead. Summaries merge, and the request rows are rows
// when the lanes filled consecutive windows of it, or else concatenate
// — or, when the lanes aggregated into reservoirs (reservoir > 0), the
// histograms merge and the reservoirs thin to one reservoir-row sample.
// rb's rebuilds, if any, finish once the foreground has quiesced, and
// Elapsed follows the overlap rule.
func (k *kernel) merge(appName string, rows []RequestTiming, reservoir int, rb *fsim.RebuildSet) (*Report, error) {
	defer k.release()
	slices.SortFunc(k.lanes, func(a, b *lane) int { return cmp.Compare(a.key, b.key) })
	var reports []*Report
	for _, l := range k.lanes {
		if l.err != nil {
			if rb != nil {
				rb.Finish()
			}
			return nil, l.err
		}
		if l.rep != nil {
			reports = append(reports, l.rep)
		}
	}
	aggregate := reservoir > 0
	merged := &Report{App: appName, SampledRequests: aggregate, Requests: rows}
	if aggregate {
		merged.ReadHist = metrics.NewLatencyHistogram()
		merged.WriteHist = metrics.NewLatencyHistogram()
		merged.SeekHist = metrics.NewLatencyHistogram()
	} else if rows == nil {
		total := 0
		for _, r := range reports {
			total += len(r.Requests)
		}
		merged.Requests = make([]RequestTiming, 0, total)
	}
	var longest time.Duration
	for _, r := range reports {
		merged.Open.Merge(&r.Open)
		merged.Close.Merge(&r.Close)
		merged.Read.Merge(&r.Read)
		merged.Write.Merge(&r.Write)
		merged.Seek.Merge(&r.Seek)
		merged.TotalRequests += r.TotalRequests
		merged.WorkerTime += r.Elapsed
		longest = max(longest, r.Elapsed)
		if aggregate {
			merged.ReadHist.Merge(r.ReadHist)
			merged.WriteHist.Merge(r.WriteHist)
			merged.SeekHist.Merge(r.SeekHist)
		} else if rows == nil {
			merged.Requests = append(merged.Requests, r.Requests...)
		}
	}
	if aggregate {
		merged.Requests = mergeReservoirs(reports, reservoir)
	} else {
		for i := range merged.Requests {
			merged.Requests[i].Index = i + 1
		}
	}
	if rb != nil {
		// The copies finished with the workers; promote the spares now
		// that the foreground has quiesced — swapping a member mid-replay
		// would change the disk the remaining lanes see.
		merged.RebuildRows = rb.Rows()
		merged.RebuildTime = rb.Elapsed()
		if err := rb.Finish(); err != nil {
			return nil, fmt.Errorf("tracesim: finishing rebuild: %w", err)
		}
		merged.RebuildMembers = rb.Members()
	}
	merged.Elapsed = merged.WorkerTime
	if k.ls != nil {
		// Overlap rule: the parallel machine finishes with its slowest
		// worker, then settles buffered writes (a deterministic elevator
		// sweep, or the write-back lanes when write-back is on).
		_, settle := k.ls.Settle()
		merged.Elapsed = longest + settle
	}
	if k.rec != nil {
		merged.Recovery = k.rec.RecoveryStats().Sub(k.recBefore)
	}
	return merged, nil
}
