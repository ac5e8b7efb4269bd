package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/simdisk"
	"repro/internal/trace"
	"repro/internal/tracesim"
)

// replayBench drives the two replay workloads. Each pass replays the
// whole trace on a freshly provisioned store, so every pass starts from
// the same cold state and its simulated output should be a function of
// the seed alone.
type replayBench struct {
	newStore func() (*fsim.FileStore, error)
	replay   func(*fsim.FileStore) (*tracesim.Report, error)
	want     opTally
	// seen holds the distinct simulated-output digests of every pass so
	// far (the determinism gauge).
	seen map[string]bool
}

func (b *replayBench) close() {}

func (b *replayBench) digests() int { return len(b.seen) }

func (b *replayBench) measure(d time.Duration, sp *spans) (*phase, error) {
	ph := newPhase()
	end := time.Now().Add(d)
	for first := true; first || time.Now().Before(end); first = false {
		pass := sp.begin("bench.pass", -1)
		p := sp.begin("fsim.provision", pass)
		store, err := b.newStore()
		sp.end(p)
		if err != nil {
			return nil, fmt.Errorf("provisioning: %w", err)
		}
		s := sp.begin("tracesim.replay", pass)
		t0, c0 := time.Now(), cpuTime()
		rep, err := b.replay(store)
		el, cpu := time.Since(t0), cpuTime()-c0
		sp.end(s)
		ph.attempted += b.want.Records
		if err != nil {
			ph.fail(b.want.Records, "replay: %v", err)
		} else {
			ph.requests += rep.TotalRequests
			ph.records += b.want.Records
			ph.busy += el
			ph.rates = append(ph.rates, float64(rep.TotalRequests)/el.Seconds())
			ph.cpuRates = append(ph.cpuRates, float64(rep.TotalRequests)/cpu.Seconds())
			ph.lat = append(ph.lat, el)
			n, problems := checkReplay(rep, b.want)
			for _, p := range problems {
				ph.fail(n, "%s", p)
				n = 0 // the failed operations are counted once
			}
			b.seen[simDigest(rep)] = true
			if sp != nil {
				noteReplayLayers(ph, store, rep, el)
			}
		}
		store.Close()
		sp.end(pass)
	}
	return ph, nil
}

// checkReplay compares a replay report with the trace it replayed: the
// per-operation counts and bytes, TotalRequests, the recovery tally and
// the sign of every latency. It returns the operations the failed
// checks cover and one message per failed check.
func checkReplay(rep *tracesim.Report, want opTally) (int64, []string) {
	var failed int64
	var problems []string
	bad := func(n int64, format string, args ...any) {
		failed += max(n, 1)
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	counts := []struct {
		op        string
		got, want int64
		s         *metrics.Summary
	}{
		{"open", rep.Open.N(), want.Opens, &rep.Open},
		{"close", rep.Close.N(), want.Closes, &rep.Close},
		{"read", rep.Read.N(), want.Reads, &rep.Read},
		{"write", rep.Write.N(), want.Writes, &rep.Write},
		{"seek", rep.Seek.N(), want.Seeks, &rep.Seek},
	}
	for _, c := range counts {
		if c.got != c.want {
			bad(abs(c.got-c.want), "%s count %d, trace has %d", c.op, c.got, c.want)
		}
		if c.got > 0 && c.op != "seek" && !(c.s.Min() > 0) {
			bad(c.got, "%s latency min %v ms is not positive", c.op, c.s.Min())
		}
	}
	if rep.TotalRequests != want.requests() {
		bad(abs(rep.TotalRequests-want.requests()), "TotalRequests %d, trace has %d", rep.TotalRequests, want.requests())
	}
	if rep.Recovery.Failed != 0 {
		bad(rep.Recovery.Failed, "%d operations failed for good", rep.Recovery.Failed)
	}
	if !(rep.Elapsed > 0) {
		bad(1, "simulated elapsed %v is not positive", rep.Elapsed)
	}
	if rep.SampledRequests {
		// Aggregated report: the histograms carry every observation and
		// the rows are a sample, so bytes are checked row by row.
		if got := rep.ReadHist.Total(); got != want.Reads {
			bad(abs(got-want.Reads), "read histogram holds %d observations, trace has %d reads", got, want.Reads)
		}
		if got := rep.WriteHist.Total(); got != want.Writes {
			bad(abs(got-want.Writes), "write histogram holds %d observations, trace has %d writes", got, want.Writes)
		}
		for _, r := range rep.Requests {
			if r.Op != trace.OpSeek && !want.lengths[r.Size] {
				bad(1, "sampled %s row moved %d bytes, a length the trace never uses", r.Op, r.Size)
			}
		}
		return failed, problems
	}
	var readBytes, writeBytes int64
	var nonPositive int64
	for _, r := range rep.Requests {
		switch r.Op {
		case trace.OpRead:
			readBytes += r.Size
			if !(r.ReadMS > 0) {
				nonPositive++
			}
		case trace.OpWrite:
			writeBytes += r.Size
			if !(r.WriteMS > 0) {
				nonPositive++
			}
		}
	}
	if readBytes != want.ReadBytes || writeBytes != want.WriteBytes {
		bad(1, "replayed %d read / %d written bytes, trace has %d / %d", readBytes, writeBytes, want.ReadBytes, want.WriteBytes)
	}
	if nonPositive > 0 {
		bad(nonPositive, "%d request rows have a non-positive latency", nonPositive)
	}
	return failed, problems
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// simDigest hashes a report's simulated output: the clocks, every
// summary, histogram and row. Equal digests mean identical simulated
// results.
func simDigest(rep *tracesim.Report) string {
	b := make([]byte, 0, 64+len(rep.Requests)*40)
	u := func(v int64) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	f := func(v float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	u(int64(rep.Elapsed))
	u(int64(rep.WorkerTime))
	u(rep.TotalRequests)
	u(rep.Recovery.Injected)
	u(rep.Recovery.Retried)
	u(rep.Recovery.Recovered)
	u(rep.Recovery.Failed)
	for _, s := range []*metrics.Summary{&rep.Open, &rep.Close, &rep.Read, &rep.Write, &rep.Seek} {
		u(s.N())
		f(s.Mean())
		f(s.Var())
		f(s.Min())
		f(s.Max())
	}
	for _, h := range []*metrics.Histogram{rep.ReadHist, rep.WriteHist, rep.SeekHist} {
		if h == nil {
			continue
		}
		for i := 0; i < h.Buckets(); i++ {
			u(h.Count(i))
		}
	}
	for _, r := range rep.Requests {
		u(int64(r.Index))
		u(int64(r.Op))
		u(r.Size)
		f(r.SeekMS)
		f(r.ReadMS)
		f(r.WriteMS)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// noteReplayLayers records one pass's layer counters. The store is the
// pass's own, so its totals are the pass's.
func noteReplayLayers(ph *phase, store *fsim.FileStore, rep *tracesim.Report, el time.Duration) {
	ph.note("tracesim.replay_s", el.Seconds())
	ph.note("tracesim.sim_elapsed_ms", msOf(rep.Elapsed))
	ph.note("fsim.ops", float64(rep.Open.N()+rep.Close.N()+rep.Read.N()+rep.Write.N()+rep.Seek.N()))
	ph.note("fsim.retried", float64(rep.Recovery.Retried))
	ph.note("fsim.failed", float64(rep.Recovery.Failed))
	noteCacheDisk(ph, store.Cache().Stats(), store.TotalDiskStats())
	if q := store.SharedQueue(); q != nil {
		qs := q.Stats()
		ph.note("sharedq.dispatches", float64(qs.Dispatches))
		ph.note("sharedq.async_dispatches", float64(qs.AsyncDispatches))
		ph.note("sharedq.queue_delay_ms", msOf(qs.QueueDelay))
		ph.note("sharedq.max_pending", float64(qs.MaxPending))
	}
}

// streamScan is the stream_scan workload: ReplayStream with streaming
// aggregation over the pre-encoded v2 trace, on the default store
// (one-stripe 64 MiB cache, private disk lanes).
type streamScan struct {
	replayBench
	in *streamInput
}

// storeMaker returns a function that provisions a fresh store of cfg
// holding the sparse sample file a replay reads.
func storeMaker(cfg fsim.Config, sample string, size int64) func() (*fsim.FileStore, error) {
	return func() (*fsim.FileStore, error) {
		st, err := fsim.NewFileStore(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := st.CreateSized(sample, size); err != nil {
			st.Close()
			return nil, err
		}
		return st, nil
	}
}

var newStreamStore = storeMaker(fsim.DefaultConfig(), streamSample, streamFileSize)

func setupStream(seed uint64) (instance, error) {
	in, err := genStream(seed)
	if err != nil {
		return nil, err
	}
	s := &streamScan{in: in}
	s.replayBench = replayBench{
		newStore: newStreamStore,
		replay:   s.replayOnce,
		want:     in.tally,
		seen:     make(map[string]bool),
	}
	return s, nil
}

func (s *streamScan) replayOnce(store *fsim.FileStore) (*tracesim.Report, error) {
	rp := tracesim.NewReplayer(store)
	rp.SampleFileSize = streamFileSize
	rp.StreamAggregate = true
	sc, err := trace.NewScanner(bytes.NewReader(s.in.encoded))
	if err != nil {
		return nil, err
	}
	return rp.ReplayStream("stream_scan", sc)
}

// decodeNSPerRecord times the trace layer alone: a Scanner decoding the
// encoded trace, median of three full decodes.
func (s *streamScan) decodeNSPerRecord() (float64, error) {
	var per []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		sc, err := trace.NewScanner(bytes.NewReader(s.in.encoded))
		if err != nil {
			return 0, err
		}
		n := 0
		for sc.Next() {
			n++
		}
		if err := sc.Err(); err != nil {
			return 0, err
		}
		if int64(n) != s.in.tally.Records {
			return 0, fmt.Errorf("decoded %d records, encoded %d", n, s.in.tally.Records)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// sharedConfig is shared_rw's store: an 8-stripe cache, background
// write-back (threshold 8 pages, SSTF) and every lane on one shared disk
// queue. The workload replays its materialized trace with
// ReplayConcurrent.
func sharedConfig() fsim.Config {
	cfg := fsim.DefaultConfig()
	cfg.Cache.Shards = 8
	cfg.Cache.WritebackThreshold = 8
	cfg.Cache.WritebackPolicy = simdisk.SSTF
	cfg.DiskQueue = fsim.DiskQueueShared
	return cfg
}

var newSharedStore = storeMaker(sharedConfig(), sharedSample, sharedFileSize)

func setupShared(seed uint64) (instance, error) {
	tr := genShared(seed)
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	b := &replayBench{
		newStore: newSharedStore,
		replay: func(store *fsim.FileStore) (*tracesim.Report, error) {
			rp := tracesim.NewReplayer(store)
			rp.SampleFileSize = sharedFileSize
			return rp.ReplayConcurrent("shared_rw", tr)
		},
		want: tallyOf(tr),
		seen: make(map[string]bool),
	}
	return b, nil
}
