// Package tracesim is the paper's second benchmark: a trace-driven I/O
// simulator (§3). It replays trace files — open/close/read/write/seek
// records against a large sample file — timing every operation, and
// produces the per-application reports of Tables 1-4.
package tracesim

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// sizedCreator is the optional store capability for provisioning large
// sparse files; *fsim.FileStore implements it.
type sizedCreator interface {
	CreateSized(name string, size int64) (time.Duration, error)
}

// recoveryStore is the optional store capability for fault-recovery
// accounting; *fsim.FileStore implements it. Replays snapshot the tally
// before and after so the report carries only its own window.
type recoveryStore interface {
	RecoveryStats() fsim.RecoveryStats
}

// rebuildStore is the optional store capability for driving degraded
// members' reconstruction alongside a replay; *fsim.FileStore
// implements it.
type rebuildStore interface {
	BeginRebuilds(members []int) (*fsim.RebuildSet, error)
}

// RequestTiming is one timed data request, a row of Tables 3-4. For seek
// records the paper's "data size" column is the seek target offset; for
// reads and writes it is the transfer length.
type RequestTiming struct {
	Index   int
	Op      trace.Op
	Size    int64
	SeekMS  float64
	ReadMS  float64
	WriteMS float64
}

// Report is a replay's measured result.
type Report struct {
	App string
	// Per-operation latency summaries in milliseconds.
	Open, Close, Read, Write, Seek metrics.Summary
	// Requests lists each data request in trace order. In streaming-
	// aggregation mode (ReplayStream with StreamAggregate) it holds a
	// bounded reservoir sample instead; SampledRequests marks that.
	Requests []RequestTiming
	// TotalRequests counts every data request routed into the report,
	// including rows a streaming-aggregation reservoir dropped. It always
	// matches len(Requests) on the non-aggregated paths.
	TotalRequests int64
	// SampledRequests reports that Requests is a reservoir sample
	// (streaming aggregation) rather than the complete row list.
	SampledRequests bool
	// ReadHist, WriteHist and SeekHist are per-operation latency
	// histograms, populated only in streaming-aggregation mode — the
	// bounded stand-in for the exact latencies the full Requests rows
	// carry otherwise.
	ReadHist, WriteHist, SeekHist *metrics.Histogram
	// Elapsed is the replay's simulated duration. Serial replay charges
	// every operation to one clock, so this is the sum of all operation
	// times (plus think time when paced). Concurrent replay on a
	// session-capable store overlaps workers: Elapsed is then the longest
	// worker lane plus any final settle flush — the parallel machine's
	// wall-style elapsed time.
	Elapsed time.Duration
	// WorkerTime is the total simulated time summed across workers (the
	// serialized-time view): Elapsed and WorkerTime coincide for serial
	// replay, and WorkerTime/Elapsed is the simulated-parallel speedup
	// for concurrent replay.
	WorkerTime time.Duration
	// ThinkTime is the total inter-record wall-clock gap charged by a
	// paced replay (zero otherwise).
	ThinkTime time.Duration
	// Recovery aggregates the store's fault-recovery counters (op-level
	// injections, retries, recoveries, hard failures) over the replay,
	// when the store exposes them; zero on fault-free runs.
	Recovery fsim.RecoveryStats
	// RebuildTime is the simulated duration of the slowest concurrent
	// member rebuild run alongside the replay (Replayer.RebuildMembers;
	// zero when none was requested); RebuildRows is how many blocks the
	// rebuilds reconstructed in total, and RebuildMembers carries the
	// per-member outcome.
	RebuildTime    time.Duration
	RebuildRows    int64
	RebuildMembers []fsim.RebuildMemberResult

	// agg, when non-nil, bounds the report's memory: addRequest feeds the
	// per-op histograms and a reservoir instead of growing Requests.
	agg *streamAgg
}

// addRequest routes one data-request row into the report: appended in
// trace order normally, folded into the histograms and reservoir in
// streaming-aggregation mode.
func (r *Report) addRequest(rt RequestTiming) {
	r.TotalRequests++
	if r.agg == nil {
		rt.Index = len(r.Requests) + 1
		r.Requests = append(r.Requests, rt)
		return
	}
	switch rt.Op {
	case trace.OpRead:
		r.ReadHist.Add(rt.ReadMS)
	case trace.OpWrite:
		r.WriteHist.Add(rt.WriteMS)
	case trace.OpSeek:
		r.SeekHist.Add(rt.SeekMS)
	}
	rt.Index = int(r.TotalRequests)
	r.agg.offer(&r.Requests, rt)
}

// Table renders the report in the generic layout (a row per operation
// kind with average latencies). The TableN functions in experiments.go
// render the paper's exact per-table layouts.
func (r *Report) Table() *metrics.Table {
	tb := metrics.NewTable(
		fmt.Sprintf("Results for the %s application", r.App),
		"Operation", "Count", "Avg time (ms)", "Min (ms)", "Max (ms)")
	add := func(name string, s *metrics.Summary) {
		if s.N() == 0 {
			return
		}
		tb.AddRow(name, s.N(), s.Mean(), s.Min(), s.Max())
	}
	add("open", &r.Open)
	add("close", &r.Close)
	add("read", &r.Read)
	add("write", &r.Write)
	add("seek", &r.Seek)
	return tb
}

// Replayer executes traces against a Store.
type Replayer struct {
	store fsim.Store
	// SampleFileSize is used to provision the sample file when the trace
	// names one that does not exist yet. Defaults to 1 GB.
	SampleFileSize int64
	// Paced honours the trace's wall-clock stamps: the gap between
	// consecutive records is charged as think time (recorded in the
	// report's ThinkTime and included in Elapsed). Unpaced replay (the
	// default, and the paper's method) issues records back to back.
	Paced bool
	// StreamAggregate switches ReplayStream's report to bounded-memory
	// aggregation: per-op latency histograms plus a reservoir sample of
	// StreamReservoir request rows instead of the full Requests slice.
	StreamAggregate bool
	// StreamReservoir is the per-worker reservoir capacity when
	// StreamAggregate is on. Defaults to 4096 rows.
	StreamReservoir int
	// RebuildMembers, on a rebuild-capable store, lists members whose
	// reconstruction runs concurrently with ReplayConcurrent's workers:
	// the rebuild reads contend with foreground traffic (through the
	// shared disk queue when one is configured) and the spares are
	// promoted once the replay quiesces — the hot-spare-pool story,
	// typically paired with fsim.Config.Spares. The report's
	// RebuildTime, RebuildRows and RebuildMembers record the copies.
	RebuildMembers []int
}

// NewReplayer builds a replayer over store.
func NewReplayer(store fsim.Store) *Replayer {
	return &Replayer{store: store, SampleFileSize: 1 << 30}
}

// errNotOpen is returned when a trace issues data operations before open.
var errNotOpen = errors.New("tracesim: operation before open")

// dataOpRows returns how many per-request rows rec will produce
// (repeat counts expanded): one per expansion for the data operations
// (seek/read/write), none for open/close.
func dataOpRows(rec *trace.Record) int {
	switch rec.Op {
	case trace.OpSeek, trace.OpRead, trace.OpWrite:
		return int(rec.Count)
	}
	return 0
}

// dataOps counts the per-request rows a record sequence will produce,
// so replays can size Report.Requests once instead of growing it on
// the hot path.
func dataOps(recs []*trace.Record) int {
	n := 0
	for _, rec := range recs {
		n += dataOpRows(rec)
	}
	return n
}

// Prepare provisions the trace's sample file if missing: sparse on stores
// that support it, zero-filled otherwise.
func (rp *Replayer) Prepare(tr *trace.Trace) error {
	return rp.prepareSample(tr.Header.SampleFile)
}

func (rp *Replayer) prepareSample(name string) error {
	if rp.store.Exists(name) {
		return nil
	}
	if sc, ok := rp.store.(sizedCreator); ok {
		_, err := sc.CreateSized(name, rp.SampleFileSize)
		return err
	}
	_, err := rp.store.Create(name, make([]byte, rp.SampleFileSize))
	return err
}

// Replay validates and executes the trace, returning the timing report.
// appName labels the report (e.g. "Data Mining").
func (rp *Replayer) Replay(appName string, tr *trace.Trace) (*Report, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if err := rp.Prepare(tr); err != nil {
		return nil, fmt.Errorf("tracesim: preparing sample file: %w", err)
	}
	rep := &Report{App: appName}
	var recBefore fsim.RecoveryStats
	rs, hasRecovery := rp.store.(recoveryStore)
	if hasRecovery {
		recBefore = rs.RecoveryStats()
	}
	n := 0
	for i := range tr.Records {
		n += dataOpRows(&tr.Records[i])
	}
	rep.Requests = make([]RequestTiming, 0, n)
	var f fsim.File
	var buf []byte
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	var elapsed time.Duration
	var prevWall int64
	for i := range tr.Records {
		rec := &tr.Records[i]
		if rp.Paced && i > 0 && rec.WallClock > prevWall {
			think := time.Duration(rec.WallClock - prevWall)
			rep.ThinkTime += think
			elapsed += think
		}
		prevWall = rec.WallClock
		for c := uint32(0); c < rec.Count; c++ {
			d, err := rp.step(rp.store, rep, &f, &buf, rec, tr.Header.SampleFile)
			if err != nil {
				return nil, fmt.Errorf("tracesim: record %d (%s): %w", i, rec.Op, err)
			}
			elapsed += d
		}
	}
	rep.Elapsed = elapsed
	rep.WorkerTime = elapsed
	if hasRecovery {
		rep.Recovery = rs.RecoveryStats().Sub(recBefore)
	}
	return rep, nil
}

// step executes one expanded trace record against st (the replayer's
// store, or one worker's session of it).
func (rp *Replayer) step(st fsim.Store, rep *Report, f *fsim.File, buf *[]byte, rec *trace.Record, sample string) (time.Duration, error) {
	switch rec.Op {
	case trace.OpOpen:
		if *f != nil {
			(*f).Close()
		}
		file, dur, err := st.Open(sample)
		if err != nil {
			return 0, err
		}
		*f = file
		rep.Open.AddDuration(dur)
		return dur, nil

	case trace.OpClose:
		if *f == nil {
			return 0, errNotOpen
		}
		dur, err := (*f).Close()
		*f = nil
		if err != nil {
			return 0, err
		}
		rep.Close.AddDuration(dur)
		return dur, nil

	case trace.OpSeek:
		if *f == nil {
			return 0, errNotOpen
		}
		// §3.3: "Seek operations are performed from the beginning of the
		// file to the offset as mentioned in the trace files."
		_, d0, err := (*f).SeekTo(0, io.SeekStart)
		if err != nil {
			return 0, err
		}
		_, d1, err := (*f).SeekTo(rec.Offset, io.SeekStart)
		if err != nil {
			return 0, err
		}
		dur := d0 + d1
		rep.Seek.AddDuration(dur)
		rep.addRequest(RequestTiming{
			Op: trace.OpSeek, Size: rec.Offset, SeekMS: ms(dur),
		})
		return dur, nil

	case trace.OpRead:
		if *f == nil {
			return 0, errNotOpen
		}
		_, seekDur, err := (*f).SeekTo(rec.Offset, io.SeekStart)
		if err != nil {
			return 0, err
		}
		*buf = grow(*buf, int(rec.Length))
		_, readDur, err := (*f).Read((*buf)[:rec.Length])
		if err != nil && err != io.EOF {
			return 0, err
		}
		rep.Read.AddDuration(readDur)
		rep.addRequest(RequestTiming{
			Op: trace.OpRead, Size: rec.Length, SeekMS: ms(seekDur), ReadMS: ms(readDur),
		})
		return seekDur + readDur, nil

	case trace.OpWrite:
		if *f == nil {
			return 0, errNotOpen
		}
		_, seekDur, err := (*f).SeekTo(rec.Offset, io.SeekStart)
		if err != nil {
			return 0, err
		}
		*buf = grow(*buf, int(rec.Length))
		_, writeDur, err := (*f).Write((*buf)[:rec.Length])
		if err != nil {
			return 0, err
		}
		rep.Write.AddDuration(writeDur)
		rep.addRequest(RequestTiming{
			Op: trace.OpWrite, Size: rec.Length, SeekMS: ms(seekDur), WriteMS: ms(writeDur),
		})
		return seekDur + writeDur, nil
	}
	return 0, fmt.Errorf("unhandled op %d", rec.Op)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// grow returns a buffer of at least n bytes, reusing b when possible.
func grow(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}
