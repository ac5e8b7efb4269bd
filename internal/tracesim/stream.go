package tracesim

import (
	"errors"
	"fmt"
	"iter"
	"sort"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// streamQueueDepth bounds each ReplayStream lane's lookahead: the
// records read from the trace that the lane has not replayed yet. 1024
// records (48 KiB) per lane keep even a hundred lanes within a few
// megabytes.
const streamQueueDepth = 1024

// recQueue is a ReplayStream lane's lookahead: recs[head:], in trace
// order.
type recQueue struct {
	recs []trace.Record
	head int
}

func (q *recQueue) len() int { return len(q.recs) - q.head }

// push appends rec, first sliding the queue to the front of its array
// when the array is full.
func (q *recQueue) push(rec trace.Record) {
	if len(q.recs) == cap(q.recs) {
		q.recs, q.head = q.recs[:copy(q.recs, q.recs[q.head:])], 0
	}
	q.recs = append(q.recs, rec)
}

// drain yields the queued records until the queue is empty. Each is a
// copy: a lane waiting mid-record on the shared queue must not see the
// queue compact under it.
func (q *recQueue) drain() iter.Seq[*trace.Record] {
	return func(yield func(*trace.Record) bool) {
		var rec trace.Record
		for q.head < len(q.recs) {
			rec = q.recs[q.head]
			q.head++
			if !yield(&rec) {
				return
			}
		}
	}
}

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
// materializing the record slice: records are read into per-PID
// lookahead queues of at most streamQueueDepth records, and the kernel
// runs each PID's lane exactly as ReplayConcurrent does. Memory is
// bounded by the lookahead and the per-lane reports, independent of
// trace length, so a billion-record v2 trace replays in a few megabytes.
//
// Before the first step the reader runs ahead until one lane's
// lookahead is full or the trace ends, so the PIDs that appear early
// join before any lane steps; afterwards it reads whenever the lane the
// kernel picks has run dry. A record for a lane whose lookahead is full
// steps that lane first — unless the lane waits in the shared disk
// queue, whose lookahead then grows past the bound until it is served.
// When every PID joins in that first read-ahead, as in the partitioned
// traces, the merged report is bit-identical to ReplayConcurrent on the
// same trace, in either disk-queue mode.
//
// With StreamAggregate set, lane reports keep per-op histograms plus a
// reservoir sample instead of the full row list (see Report); the
// merged Requests are then a deterministic proportional sample.
func (rp *Replayer) ReplayStream(appName string, sc *trace.Scanner) (*Report, error) {
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

	k := newKernel(rp.store)
	byPID := make(map[uint32]*lane)
	eof := false
	// read moves the next record into its lane's lookahead, opening the
	// lane on its PID's first record, and returns the lane (nil at the
	// end of the trace). A failed lane's records are dropped.
	read := func() *lane {
		if eof = eof || !sc.Next(); eof {
			return nil
		}
		rec := sc.Record()
		l := byPID[rec.PID]
		if l == nil {
			rep := &Report{}
			if reservoir > 0 {
				rep.agg = newStreamAgg(reservoir, rec.PID)
				rep.ReadHist = metrics.NewLatencyHistogram()
				rep.WriteHist = metrics.NewLatencyHistogram()
				rep.SeekHist = metrics.NewLatencyHistogram()
			}
			q := &recQueue{}
			l = k.addProcess(rp, rec.PID, rep, h.SampleFile, q.drain())
			l.queue = q
			byPID[rec.PID] = l
		}
		for l.queue.len() >= streamQueueDepth && l.ready() {
			l.step()
		}
		if !l.done {
			l.queue.push(*rec)
		}
		return l
	}
	for l := read(); l != nil && l.queue.len() < streamQueueDepth; l = read() {
	}
	for l := k.next(); l != nil; l = k.next() {
		if l.queue.len() > 0 || eof {
			l.step()
			continue
		}
		// The picked lane ran dry: read until it has a record, then pick
		// again, since the read may have opened new lanes.
		for l.queue.len() == 0 && read() != nil {
		}
	}
	if err := sc.Err(); err != nil {
		k.release()
		return nil, err
	}
	return k.merge(appName, nil, reservoir, nil)
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
