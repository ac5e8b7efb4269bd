package tracesim

import (
	"reflect"
	"testing"

	"repro/internal/buffercache"
	"repro/internal/fsim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// equivalenceStore builds a store with real cache pressure (an 8 MB
// cache under a 64 MB file) so the replay exercises hits, miss runs,
// prefetch, dirty write-back on eviction, and flush-on-close.
// pageGranular routes the cache's data path through the retained
// per-page reference implementation.
func equivalenceStore(t *testing.T, shards int, pageGranular bool) *fsim.FileStore {
	t.Helper()
	cfg := fsim.DefaultConfig()
	cfg.Cache.Shards = shards
	cfg.Cache.NumPages = 2048 // 8 MB: evictions engage
	store, err := fsim.NewFileStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store.Cache().SetPageGranular(pageGranular)
	return store
}

// mixedTrace is the consolidated multi-application workload: all five
// paper applications interleaved, with reads, writes, and seeks.
func mixedTrace(t *testing.T) *trace.Trace {
	t.Helper()
	p := tracegen.DefaultParams()
	p.FileSize = 64 << 20
	p.Requests = 96
	tr, err := tracegen.Mixed(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestReplayBulkMatchesPageGranular replays the mixed trace through the
// bulk cache path and the retained per-page path: the reports — every
// latency summary and per-request row — and the cache statistics must
// be identical. This is the end-to-end form of the buffercache
// equivalence contract: the bulk rewrite changed the wall-clock cost of
// the replay engine, not one nanosecond of what it simulates.
func TestReplayBulkMatchesPageGranular(t *testing.T) {
	tr := mixedTrace(t)
	run := func(pageGranular bool) (*Report, buffercache.Stats, int, int) {
		store := equivalenceStore(t, 1, pageGranular)
		rp := NewReplayer(store)
		rp.SampleFileSize = 64 << 20
		rep, err := rp.Replay("Mixed", tr)
		if err != nil {
			t.Fatal(err)
		}
		stats := store.Cache().Stats()
		return rep, stats, store.Cache().ResidentPages(), store.Cache().DirtyPages()
	}
	bulkRep, bulkStats, bulkRes, bulkDirty := run(false)
	pageRep, pageStats, pageRes, pageDirty := run(true)
	if !reflect.DeepEqual(bulkRep, pageRep) {
		t.Fatalf("reports diverge:\nbulk elapsed %v, per-page elapsed %v\nbulk read mean %v, per-page %v",
			bulkRep.Elapsed, pageRep.Elapsed, bulkRep.Read.Mean(), pageRep.Read.Mean())
	}
	if bulkStats != pageStats {
		t.Fatalf("cache stats diverge:\nbulk:     %+v\nper-page: %+v", bulkStats, pageStats)
	}
	if bulkRes != pageRes || bulkDirty != pageDirty {
		t.Fatalf("cache state diverges: resident %d vs %d, dirty %d vs %d",
			bulkRes, pageRes, bulkDirty, pageDirty)
	}
	if bulkStats.HitRate() == 0 || bulkStats.Evictions == 0 {
		t.Fatalf("workload exercised no pressure (hit rate %v, evictions %d); equivalence test is vacuous",
			bulkStats.HitRate(), bulkStats.Evictions)
	}
	if bulkRep.Read.N() == 0 || bulkRep.Write.N() == 0 || bulkRep.Seek.N() == 0 {
		t.Fatal("mixed trace missing an operation kind; equivalence test is vacuous")
	}
}

// TestConcurrentReplayBulkMatchesPageGranular is the same contract for
// the simulated-parallel path: 8 workers on 8 stripes, write-back on.
func TestConcurrentReplayBulkMatchesPageGranular(t *testing.T) {
	tr := determinismTrace(t)
	run := func(pageGranular bool) *Report {
		store := fsim.MustNewFileStore(determinismConfig())
		store.Cache().SetPageGranular(pageGranular)
		rp := NewReplayer(store)
		rp.SampleFileSize = 32 << 20
		rep, err := rp.ReplayConcurrent("Parallel", tr)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	bulk, page := run(false), run(true)
	if !reflect.DeepEqual(bulk, page) {
		t.Fatalf("concurrent reports diverge: bulk elapsed %v vs per-page %v", bulk.Elapsed, page.Elapsed)
	}
}
