package tracesim

import (
	"reflect"
	"testing"

	"repro/internal/fsim"
	"repro/internal/simdisk"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// determinismConfig is the simulated-parallel configuration the
// determinism guarantee covers: striped cache, background write-back
// through the SSTF queue, and no shared warm-on-open (the only
// foreground path whose timing would depend on which worker got to a
// shared page first).
func determinismConfig() fsim.Config {
	cfg := fsim.DefaultConfig()
	cfg.Cache.Shards = 8
	cfg.Cache.WritebackThreshold = 8
	cfg.Cache.WritebackPolicy = simdisk.SSTF
	cfg.WarmPagesOnOpen = 0
	return cfg
}

// determinismTrace is the 8-worker partitioned workload: disjoint
// regions, per-worker opens, reads with periodic in-place rewrites.
func determinismTrace(t *testing.T) *trace.Trace {
	t.Helper()
	p := tracegen.DefaultParams()
	p.FileSize = 32 << 20
	p.Requests = 256
	p.Workers = 8
	tr, err := tracegen.Parallel(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func replayConcurrentOnce(t *testing.T, tr *trace.Trace) *Report {
	t.Helper()
	store := fsim.MustNewFileStore(determinismConfig())
	rp := NewReplayer(store)
	rp.SampleFileSize = 32 << 20
	rep, err := rp.ReplayConcurrent("Parallel", tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := store.Cache().DirtyPages(); got != 0 {
		t.Fatalf("%d dirty pages survived the settle", got)
	}
	return rep
}

// TestReplayDeterministicSerialVsConcurrent is the simulated-parallel
// determinism contract: the same trace replayed serially and with
// ReplayConcurrent (8 shards, write-back on, one lane per worker)
// yields identical merged reports across repeated runs — every latency
// row bit-equal — and the two modes agree on the operation population.
func TestReplayDeterministicSerialVsConcurrent(t *testing.T) {
	tr := determinismTrace(t)

	// Concurrent replay: repeated runs must be bit-identical.
	first := replayConcurrentOnce(t, tr)
	for run := 0; run < 2; run++ {
		again := replayConcurrentOnce(t, tr)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("concurrent replay diverged on run %d:\nfirst: %+v\nagain: %+v",
				run+2, summary(first), summary(again))
		}
	}

	// Serial replay of the same trace is deterministic too.
	serialOnce := func() *Report {
		store := fsim.MustNewFileStore(determinismConfig())
		rp := NewReplayer(store)
		rp.SampleFileSize = 32 << 20
		rep, err := rp.Replay("Parallel", tr)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	s1, s2 := serialOnce(), serialOnce()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("serial replay diverged across runs")
	}

	// Serial and concurrent see the same operation population.
	if first.Open.N() != s1.Open.N() || first.Close.N() != s1.Close.N() ||
		first.Read.N() != s1.Read.N() || first.Write.N() != s1.Write.N() {
		t.Fatalf("op counts diverge: concurrent open/close/read/write %d/%d/%d/%d, serial %d/%d/%d/%d",
			first.Open.N(), first.Close.N(), first.Read.N(), first.Write.N(),
			s1.Open.N(), s1.Close.N(), s1.Read.N(), s1.Write.N())
	}
	if len(first.Requests) != len(s1.Requests) {
		t.Fatalf("request rows diverge: %d vs %d", len(first.Requests), len(s1.Requests))
	}
}

// TestReplayConcurrentSimulatedParallelTime checks the tentpole's time
// model: with 8 workers on independent lanes, the merged Elapsed is the
// longest lane (overlap), so the summed worker time exceeds it by the
// parallelism factor.
func TestReplayConcurrentSimulatedParallelTime(t *testing.T) {
	tr := determinismTrace(t)
	rep := replayConcurrentOnce(t, tr)
	if rep.Elapsed <= 0 || rep.WorkerTime <= 0 {
		t.Fatalf("no simulated time recorded: %+v", summary(rep))
	}
	if rep.WorkerTime < 2*rep.Elapsed {
		t.Fatalf("simulated time still serialized: worker total %v vs elapsed %v (want >= 2x overlap)",
			rep.WorkerTime, rep.Elapsed)
	}
}

// TestReplayDeterministicOverlappingFootprints extends the contract to
// processes that share pages (Mixed): the kernel steps lanes in
// virtual-time order, so which process pays a shared page's miss, and
// what eviction and write-back see, never depend on scheduling. Each
// row replays 20 times in both disk-queue modes, bit-identically.
func TestReplayDeterministicOverlappingFootprints(t *testing.T) {
	p := tracegen.DefaultParams()
	p.FileSize = 32 << 20
	p.Requests = 256
	p.Workers = 8
	tr, err := tracegen.Mixed(p)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name string
		mut  func(*fsim.Config)
	}{
		{"sharded", func(*fsim.Config) {}},
		{"writeback-evicting", func(cfg *fsim.Config) {
			cfg.Cache.WritebackThreshold = 8
			cfg.Cache.NumPages = 512
		}},
	}
	for _, row := range rows {
		for _, mode := range []fsim.DiskQueueMode{fsim.DiskQueuePrivate, fsim.DiskQueueShared} {
			t.Run(row.name+"/"+mode.String(), func(t *testing.T) {
				var first *Report
				for run := 1; run <= 20; run++ {
					cfg := fsim.ShardedConfig()
					row.mut(&cfg)
					cfg.DiskQueue = mode
					rp := NewReplayer(fsim.MustNewFileStore(cfg))
					rp.SampleFileSize = p.FileSize
					rep, err := rp.ReplayConcurrent("Mixed", tr)
					if err != nil {
						t.Fatal(err)
					}
					if first == nil {
						first = rep
					} else if !reflect.DeepEqual(first, rep) {
						t.Fatalf("run %d diverged:\nfirst: %+v\nagain: %+v", run, summary(first), summary(rep))
					}
				}
			})
		}
	}
}

// summary renders the fields that matter for a failure message.
func summary(r *Report) map[string]any {
	return map[string]any{
		"elapsed":    r.Elapsed,
		"workerTime": r.WorkerTime,
		"open":       r.Open.N(),
		"read":       r.Read.N(),
		"write":      r.Write.N(),
		"requests":   len(r.Requests),
	}
}
