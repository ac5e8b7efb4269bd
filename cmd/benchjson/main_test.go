package main

import (
	"testing"
	"time"
)

// TestPerRecordRowKeepsFractionalAllocs: a replay that allocates a few
// hundred objects over thousands of records reports its real per-record
// rate, not an integer quotient truncated to zero.
func TestPerRecordRowKeepsFractionalAllocs(t *testing.T) {
	res := testing.BenchmarkResult{N: 4, T: 40 * time.Millisecond, MemAllocs: 4 * 462}
	got := perRecordRow("replay_stream", res, 8192)
	if want := 462.0 / 8192; got.AllocsPerOp != want {
		t.Fatalf("allocs_per_op = %v, want %v", got.AllocsPerOp, want)
	}
	if want := 10e6 / 8192; got.NsPerOp != want {
		t.Fatalf("ns_per_op = %v, want %v", got.NsPerOp, want)
	}
}
