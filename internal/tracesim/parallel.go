package tracesim

import (
	"fmt"
	"iter"
	"maps"
	"slices"
	"sync"
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

// laneSet is what a concurrent replay holds across its lanes: the
// store's session capability, one session per lane when it has one, and
// the store's recovery tally taken before the first lane ran.
type laneSet struct {
	store     fsim.Store
	ls        laneStore // nil on stores without sessions
	sessions  []*fsim.Session
	rec       recoveryStore // nil on stores without recovery accounting
	recBefore fsim.RecoveryStats
}

func newLaneSet(store fsim.Store) *laneSet {
	l := &laneSet{store: store}
	l.ls, _ = store.(laneStore)
	if l.rec, _ = store.(recoveryStore); l.rec != nil {
		l.recBefore = l.rec.RecoveryStats()
	}
	return l
}

// add opens one lane and returns the store it replays against: a new
// session on a session-capable store, the shared store otherwise.
func (l *laneSet) add() fsim.Store {
	if l.ls == nil {
		return l.store
	}
	sess := l.ls.NewSession()
	l.sessions = append(l.sessions, sess)
	return sess
}

// release retires every lane's session; the lanes' final times fold
// into the timeline, so repeated replays on one store do not accumulate
// dead lanes.
func (l *laneSet) release() {
	for _, sess := range l.sessions {
		sess.Release()
	}
}

// ReplayConcurrent replays a multi-process trace with one goroutine per
// process id, each with its own file handle — the execution structure of
// the traced parallel applications (Pgrep's four workers, §3.1). Records
// keep their per-PID order; cross-PID interleaving is whatever the
// scheduler produces, as it was on the original machine.
//
// On a session-capable store each worker replays on its own
// virtual-time lane with a private disk view, so the workers are
// simulated-parallel, not just wall-parallel: the merged report's
// Elapsed is the longest lane plus the final settle (max-over-workers,
// the overlap rule), while WorkerTime keeps the summed view. The
// aggregate report merges all processes.
func (rp *Replayer) ReplayConcurrent(appName string, tr *trace.Trace) (*Report, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if err := rp.Prepare(tr); err != nil {
		return nil, fmt.Errorf("tracesim: preparing sample file: %w", err)
	}

	// Partition records by PID, preserving order.
	byPID := make(map[uint32][]*trace.Record)
	for i := range tr.Records {
		rec := &tr.Records[i]
		byPID[rec.PID] = append(byPID[rec.PID], rec)
	}
	pids := slices.Sorted(maps.Keys(byPID))

	// Register every worker's lane before any worker runs. Creating
	// sessions inside the spawn loop races against the workers it has
	// already started: a shared disk queue dispatches a sole registered
	// lane inline and advances its queue edge, so under heavy host load
	// an early worker could run ahead before later lanes joined — and a
	// late lane floors at the advanced edge, shifting its timings.
	// Pre-registering the full lane set keeps the merge a pure function
	// of the trace.
	l := newLaneSet(rp.store)
	stores := make([]fsim.Store, len(pids))
	for i := range pids {
		stores[i] = l.add()
	}

	// Requested member rebuilds join before the workers too, for the
	// same reason: their lanes must be part of the merge from the start.
	var rb *fsim.RebuildSet
	if len(rp.RebuildMembers) > 0 {
		rs, ok := rp.store.(rebuildStore)
		if !ok {
			l.release()
			return nil, fmt.Errorf("tracesim: store %T cannot rebuild a member", rp.store)
		}
		var err error
		if rb, err = rs.BeginRebuilds(rp.RebuildMembers); err != nil {
			l.release()
			return nil, fmt.Errorf("tracesim: starting rebuild: %w", err)
		}
	}

	var wg sync.WaitGroup
	if rb != nil {
		// The copies stream through the store's disk path alongside the
		// foreground workers, so rebuild-vs-foreground contention lands in
		// the merged timings.
		wg.Add(1)
		go func() {
			defer wg.Done()
			rb.Run()
		}()
	}
	reports := make([]*Report, len(pids))
	errs := make([]error, len(pids))
	for i, pid := range pids {
		recs := byPID[pid]
		reports[i] = &Report{Requests: make([]RequestTiming, 0, dataOps(recs))}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = rp.replayLane(stores[i], reports[i], tr.Header.SampleFile, pid, slices.Values(recs))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			if rb != nil {
				rb.Finish()
			}
			l.release()
			return nil, err
		}
	}
	return l.merge(appName, reports, 0, rb)
}

// replayLane is the lane worker of both concurrent replays: it
// executes one process's records, in order, against st (the lane's
// session, or the shared store) into rep, and stops at the first error,
// positioned by PID and the lane's record index. A lane whose first
// data operation precedes its own open record inherits an implicit
// open, as the shared-handle traces of the paper do.
func (rp *Replayer) replayLane(st fsim.Store, rep *Report, sample string, pid uint32, recs iter.Seq[*trace.Record]) error {
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
	}
	return nil
}

// merge folds the lanes' reports, in PID order, into one report and
// releases the lanes. Summaries merge and the request rows concatenate
// — or, when the lanes aggregated into reservoirs (reservoir > 0), the
// histograms merge and the reservoirs thin to one reservoir-row sample.
// rb's rebuilds, if any, finish once the foreground has quiesced, and
// Elapsed follows the overlap rule.
func (l *laneSet) merge(appName string, reports []*Report, reservoir int, rb *fsim.RebuildSet) (*Report, error) {
	defer l.release()
	aggregate := reservoir > 0
	merged := &Report{App: appName, SampledRequests: aggregate}
	if aggregate {
		merged.ReadHist = metrics.NewLatencyHistogram()
		merged.WriteHist = metrics.NewLatencyHistogram()
		merged.SeekHist = metrics.NewLatencyHistogram()
	} else {
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
		} else {
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
		// The copies finished with the workers (Run was waited on);
		// promote the spares now that the foreground has quiesced —
		// swapping a member mid-replay would make dispatch order depend
		// on wall-clock interleaving.
		merged.RebuildRows = rb.Rows()
		merged.RebuildTime = rb.Elapsed()
		if err := rb.Finish(); err != nil {
			return nil, fmt.Errorf("tracesim: finishing rebuild: %w", err)
		}
		merged.RebuildMembers = rb.Members()
	}
	merged.Elapsed = merged.WorkerTime
	if l.ls != nil {
		// Overlap rule: the parallel machine finishes with its slowest
		// worker, then settles buffered writes (a deterministic elevator
		// sweep, or the background flushers when write-back is on).
		_, settle := l.ls.Settle()
		merged.Elapsed = longest + settle
	}
	if l.rec != nil {
		merged.Recovery = l.rec.RecoveryStats().Sub(l.recBefore)
	}
	return merged, nil
}
