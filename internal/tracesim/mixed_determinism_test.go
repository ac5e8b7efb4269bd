package tracesim

import (
	"sort"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

// pidRange is one process's touched byte extent on the sample file.
type pidRange struct {
	pid      uint32
	lo, hi   int64
	touched  int64
	overlaps []uint32
}

// footprints computes each PID's touched byte range over the data
// operations of a trace, and which other PIDs' ranges intersect it.
func footprints(tr *trace.Trace) []pidRange {
	byPID := make(map[uint32]*pidRange)
	for i := range tr.Records {
		rec := &tr.Records[i]
		if rec.Op != trace.OpRead && rec.Op != trace.OpWrite {
			continue
		}
		lo, hi := rec.Offset, rec.Offset+int64(rec.Length)*int64(rec.Count)
		r, ok := byPID[rec.PID]
		if !ok {
			byPID[rec.PID] = &pidRange{pid: rec.PID, lo: lo, hi: hi, touched: hi - lo}
			continue
		}
		if lo < r.lo {
			r.lo = lo
		}
		if hi > r.hi {
			r.hi = hi
		}
		r.touched += hi - lo
	}
	out := make([]pidRange, 0, len(byPID))
	for _, r := range byPID {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pid < out[j].pid })
	for i := range out {
		for j := range out {
			if i != j && out[i].lo < out[j].hi && out[j].lo < out[i].hi {
				out[i].overlaps = append(out[i].overlaps, out[j].pid)
			}
		}
	}
	return out
}

// TestMixedFootprintsOverlapParallelDoNot shows that the Mixed rows of
// TestReplayDeterministicOverlappingFootprints are not trivial: Mixed's
// processes read overlapping regions of the one sample file through the
// one shared page cache, so which worker pays a shared page's cold
// miss — and which gets the warm hit — depends on the order the lanes
// reach the cache, while Parallel's workers read disjoint regions and
// cannot observe that order at all.
func TestMixedFootprintsOverlapParallelDoNot(t *testing.T) {
	p := tracegen.DefaultParams()
	p.FileSize = 32 << 20
	p.Requests = 256
	p.Workers = 8

	par, err := tracegen.Parallel(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range footprints(par) {
		if len(r.overlaps) != 0 {
			t.Fatalf("Parallel pid %d overlaps pids %v — the disjoint-region premise of the determinism contract broke", r.pid, r.overlaps)
		}
	}

	mixed, err := tracegen.Mixed(p)
	if err != nil {
		t.Fatal(err)
	}
	overlapping := 0
	for _, r := range footprints(mixed) {
		if len(r.overlaps) > 0 {
			overlapping++
		}
	}
	if overlapping < 2 {
		t.Fatalf("Mixed PIDs no longer share file regions (%d overlapping); the Mixed determinism rows lost their point", overlapping)
	}
}
