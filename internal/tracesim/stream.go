package tracesim

import (
	"errors"
	"fmt"
	"iter"
	"maps"
	"slices"
	"sort"
	"sync"

	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// streamQueueDepth bounds each ReplayStream lane's record queue: the
// backpressure on the trace reader. 1024 records (48 KiB) per lane let
// the reader run ahead of a briefly slower lane while the queues of
// even a hundred lanes stay within a few megabytes.
const streamQueueDepth = 1024

// streamAgg is the bounded-memory row keeper for streaming aggregation:
// reservoir sampling (Algorithm R) over the request rows, driven by a
// deterministic xorshift64 stream so replays reproduce bit-identically.
type streamAgg struct {
	capN int
	seen int64
	rng  uint64
}

func newStreamAgg(capN int, pid uint32) *streamAgg {
	// Seed from the PID so every worker draws a distinct deterministic
	// stream; the odd constant keeps pid 0 away from the all-zero state.
	return &streamAgg{capN: capN, rng: uint64(pid)*0x9E3779B97F4A7C15 + 1}
}

func (a *streamAgg) next() uint64 {
	a.rng ^= a.rng << 13
	a.rng ^= a.rng >> 7
	a.rng ^= a.rng << 17
	return a.rng
}

// offer applies one Algorithm R step to the reservoir in *rows.
func (a *streamAgg) offer(rows *[]RequestTiming, rt RequestTiming) {
	a.seen++
	if len(*rows) < a.capN {
		*rows = append(*rows, rt)
		return
	}
	if j := a.next() % uint64(a.seen); j < uint64(a.capN) {
		(*rows)[j] = rt
	}
}

// ReplayStream replays a trace straight off a Scanner without ever
// materializing the record slice: a reader decodes records and routes
// them to per-PID lanes through bounded queues (backpressure, not
// buffering), and each lane runs the same worker and the same merge as
// a ReplayConcurrent lane. Memory is bounded by the queues and the
// per-lane reports, independent of trace length, so a billion-record v2
// trace replays in a few megabytes.
//
// On a session-capable store each lane is a pure function of its own
// record sequence — private virtual clock, private disk view — so the
// merged report is bit-identical to ReplayConcurrent on the same trace,
// whatever the goroutine interleaving. The shared disk-queue mode is
// refused: contending lanes rendezvous through the queue, which needs
// every lane's future known up front (the reader could deadlock feeding
// a lane whose dispatch gates on another still-unfed lane), and its
// cross-lane ordering is the one thing streaming cannot reproduce.
//
// With StreamAggregate set, lane reports keep per-op histograms plus a
// reservoir sample instead of the full row list (see Report); the
// merged Requests are then a deterministic proportional sample.
func (rp *Replayer) ReplayStream(appName string, sc *trace.Scanner) (*Report, error) {
	if fs, ok := rp.store.(*fsim.FileStore); ok && fs.SharedQueue() != nil {
		return nil, errors.New("tracesim: ReplayStream does not support the shared disk-queue mode; use ReplayConcurrent on a materialized trace")
	}
	h := sc.Header()
	if h.SampleFile == "" {
		return nil, errors.New("trace: empty sample file name")
	}
	if err := rp.prepareSample(h.SampleFile); err != nil {
		return nil, fmt.Errorf("tracesim: preparing sample file: %w", err)
	}
	reservoir := 0
	if rp.StreamAggregate {
		reservoir = rp.reservoirCap()
	}

	type lane struct {
		ch  chan trace.Record
		rep *Report
		err error
	}
	l := newLaneSet(rp.store)
	lanes := make(map[uint32]*lane)
	var wg sync.WaitGroup
	for sc.Next() {
		rec := sc.Record()
		ln := lanes[rec.PID]
		if ln == nil {
			ln = &lane{ch: make(chan trace.Record, streamQueueDepth), rep: &Report{}}
			if reservoir > 0 {
				ln.rep.agg = newStreamAgg(reservoir, rec.PID)
				ln.rep.ReadHist = metrics.NewLatencyHistogram()
				ln.rep.WriteHist = metrics.NewLatencyHistogram()
				ln.rep.SeekHist = metrics.NewLatencyHistogram()
			}
			lanes[rec.PID] = ln
			st := l.add()
			wg.Add(1)
			go func(pid uint32) {
				defer wg.Done()
				ln.err = rp.replayLane(st, ln.rep, h.SampleFile, pid, queued(ln.ch))
				// A failed lane stops reading: drain its queue so the
				// reader never blocks on it.
				for range ln.ch {
				}
			}(rec.PID)
		}
		ln.ch <- *rec
	}
	for _, ln := range lanes {
		close(ln.ch)
	}
	wg.Wait()

	if err := sc.Err(); err != nil {
		l.release()
		return nil, err
	}
	pids := slices.Sorted(maps.Keys(lanes))
	reports := make([]*Report, len(pids))
	for i, pid := range pids {
		if err := lanes[pid].err; err != nil {
			l.release()
			return nil, err
		}
		reports[i] = lanes[pid].rep
	}
	return l.merge(appName, reports, reservoir, nil)
}

// queued yields a lane's records from its queue until the queue closes.
func queued(ch <-chan trace.Record) iter.Seq[*trace.Record] {
	return func(yield func(*trace.Record) bool) {
		var rec trace.Record
		for rec = range ch {
			if !yield(&rec) {
				return
			}
		}
	}
}

func (rp *Replayer) reservoirCap() int {
	if rp.StreamReservoir > 0 {
		return rp.StreamReservoir
	}
	return 4096
}

// mergeReservoirs thins per-lane reservoirs, in PID order, to one
// capN-row sample, allocating slots proportionally to each lane's row
// count (largest remainder, ties to the lower PID) and taking a uniform
// stride through each reservoir — deterministic, no RNG at merge time.
func mergeReservoirs(reports []*Report, capN int) []RequestTiming {
	total := 0
	for _, r := range reports {
		total += len(r.Requests)
	}
	if total <= capN {
		out := make([]RequestTiming, 0, total)
		for _, r := range reports {
			out = append(out, r.Requests...)
		}
		return out
	}
	quota := make([]int, len(reports))
	assigned := 0
	type frac struct {
		i   int
		rem int
	}
	fracs := make([]frac, len(reports))
	for i, r := range reports {
		n := len(r.Requests) * capN
		quota[i] = n / total
		fracs[i] = frac{i: i, rem: n % total}
		assigned += quota[i]
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].rem > fracs[b].rem })
	for k := 0; assigned < capN; k++ {
		quota[fracs[k%len(fracs)].i]++
		assigned++
	}
	out := make([]RequestTiming, 0, capN)
	for i, r := range reports {
		rs := r.Requests
		n := min(quota[i], len(rs))
		for k := 0; k < n; k++ {
			out = append(out, rs[k*len(rs)/n])
		}
	}
	return out
}
