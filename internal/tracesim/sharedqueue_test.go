package tracesim

import (
	"reflect"
	"testing"

	"repro/internal/fsim"
	"repro/internal/simdisk"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// sharedQueueConfig is determinismConfig routed through the shared disk
// queue under the given scheduling policy: the contended-queue
// counterpart of the simulated-parallel determinism contract.
func sharedQueueConfig(policy simdisk.SchedPolicy) fsim.Config {
	cfg := determinismConfig()
	cfg.Cache.WritebackPolicy = policy
	cfg.DiskQueue = fsim.DiskQueueShared
	return cfg
}

func replaySharedOnce(t *testing.T, tr *trace.Trace, policy simdisk.SchedPolicy) *Report {
	t.Helper()
	store := fsim.MustNewFileStore(sharedQueueConfig(policy))
	rp := NewReplayer(store)
	rp.SampleFileSize = 32 << 20
	rep, err := rp.ReplayConcurrent("Parallel", tr)
	if err != nil {
		t.Fatal(err)
	}
	if store.SharedQueue() == nil {
		t.Fatal("shared-queue store reports no queue")
	}
	if st := store.SharedQueue().Stats(); st.Dispatches == 0 {
		t.Fatal("no requests moved through the shared queue")
	}
	return rep
}

// TestSharedQueueReplayDeterministic is the contended-queue determinism
// contract: 8 workers contending for one simulated disk queue
// (write-back on, every policy) produce bit-identical merged reports
// across repeated runs.
func TestSharedQueueReplayDeterministic(t *testing.T) {
	tr := determinismTrace(t)
	for _, policy := range []simdisk.SchedPolicy{simdisk.FCFS, simdisk.SSTF, simdisk.SCAN} {
		t.Run(policy.String(), func(t *testing.T) {
			first := replaySharedOnce(t, tr, policy)
			for run := 0; run < 2; run++ {
				again := replaySharedOnce(t, tr, policy)
				if !reflect.DeepEqual(first, again) {
					t.Fatalf("shared-queue replay diverged on run %d:\nfirst: %+v\nagain: %+v",
						run+2, summary(first), summary(again))
				}
			}
		})
	}
}

// TestSharedQueuePoliciesSeparate is the ablation the shared queue
// exists for: with 8 lanes contending, FCFS, SSTF, and SCAN order the
// queue differently, so foreground latencies must actually move — under
// private views the policies were indistinguishable outside write-back.
func TestSharedQueuePoliciesSeparate(t *testing.T) {
	tr := determinismTrace(t)
	reads := make(map[simdisk.SchedPolicy]float64)
	for _, policy := range []simdisk.SchedPolicy{simdisk.FCFS, simdisk.SSTF, simdisk.SCAN} {
		rep := replaySharedOnce(t, tr, policy)
		reads[policy] = rep.Read.Mean()
	}
	if reads[simdisk.FCFS] == reads[simdisk.SSTF] && reads[simdisk.FCFS] == reads[simdisk.SCAN] {
		t.Fatalf("policies do not separate on foreground reads: FCFS=%v SSTF=%v SCAN=%v",
			reads[simdisk.FCFS], reads[simdisk.SSTF], reads[simdisk.SCAN])
	}
}

// singleLaneTrace is a one-worker workload: the shared queue then always
// has exactly one registered lane, which must serve inline.
func singleLaneTrace(t *testing.T) *trace.Trace {
	t.Helper()
	p := tracegen.DefaultParams()
	p.FileSize = 32 << 20
	p.Requests = 256
	p.Workers = 1
	tr, err := tracegen.Parallel(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSharedQueueSingleLaneMatchesPrivate is the equivalence contract:
// a shared queue with one lane serves every submission inline on the
// device, so the replay report is bit-identical to the private-view
// path — the contention model nests the original model exactly.
func TestSharedQueueSingleLaneMatchesPrivate(t *testing.T) {
	tr := singleLaneTrace(t)
	variants := []struct {
		name string
		mut  func(*fsim.Config)
	}{
		{"striped", func(cfg *fsim.Config) {}},
		// One stripe: private mode takes the merged one-shard read path,
		// shared mode cannot (it would block under the stripe lock), so
		// this pins the two read paths' bit-equality across the mode.
		{"one-stripe", func(cfg *fsim.Config) { cfg.Cache.Shards = 1 }},
		// A cache far smaller than the file: the eviction and read-ahead
		// paths (async under contention) dominate, and must still match.
		// Without write-back, dirty victims bill synchronously and the
		// close flush runs the batched ServeBatch sweep through the lane;
		// with it, threshold drains and evictions both retire dirty pages.
		{"evicting", func(cfg *fsim.Config) {
			cfg.Cache.NumPages = 512
			cfg.Cache.WritebackThreshold = 0
		}},
		{"evicting-writeback", func(cfg *fsim.Config) { cfg.Cache.NumPages = 512 }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			runOnce := func(mode fsim.DiskQueueMode) *Report {
				cfg := determinismConfig()
				v.mut(&cfg)
				cfg.DiskQueue = mode
				store := fsim.MustNewFileStore(cfg)
				rp := NewReplayer(store)
				rp.SampleFileSize = 32 << 20
				rep, err := rp.ReplayConcurrent("Parallel", tr)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			private := runOnce(fsim.DiskQueuePrivate)
			shared := runOnce(fsim.DiskQueueShared)
			if !reflect.DeepEqual(private, shared) {
				t.Fatalf("single-lane shared queue diverged from private views:\nprivate: %+v\nshared:  %+v",
					summary(private), summary(shared))
			}
		})
	}
}
