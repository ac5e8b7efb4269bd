package tracesim

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fsim"
	"repro/internal/simdisk"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// streamScanner encodes tr with encode and returns a scanner over the
// bytes — the out-of-core path, minus the disk.
func streamScanner(t testing.TB, tr *trace.Trace, encode func(*bytes.Buffer, *trace.Trace) error) *trace.Scanner {
	t.Helper()
	var buf bytes.Buffer
	if err := encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	sc, err := trace.NewScanner(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func encodeV1(buf *bytes.Buffer, tr *trace.Trace) error { return trace.Write(buf, tr) }
func encodeV2(buf *bytes.Buffer, tr *trace.Trace) error { return trace.WriteV2(buf, tr) }

func replayStreamOnce(t *testing.T, tr *trace.Trace, encode func(*bytes.Buffer, *trace.Trace) error) *Report {
	t.Helper()
	store := fsim.MustNewFileStore(determinismConfig())
	rp := NewReplayer(store)
	rp.SampleFileSize = 32 << 20
	rep, err := rp.ReplayStream("Parallel", streamScanner(t, tr, encode))
	if err != nil {
		t.Fatal(err)
	}
	if got := store.Cache().DirtyPages(); got != 0 {
		t.Fatalf("%d dirty pages survived the settle", got)
	}
	return rep
}

// TestReplayStreamMatchesConcurrent is the streaming-ingestion
// equivalence contract: ReplayStream over an encoded byte stream (either
// format version) produces a merged report bit-identical to
// ReplayConcurrent over the materialized trace, and repeated streamed
// runs are bit-identical to each other. The shared rows hold the same
// on the contended disk queue at 1, 4 and 8 lanes.
func TestReplayStreamMatchesConcurrent(t *testing.T) {
	tr := determinismTrace(t)
	want := replayConcurrentOnce(t, tr)
	for _, tc := range []struct {
		name   string
		encode func(*bytes.Buffer, *trace.Trace) error
	}{
		{"v1", encodeV1},
		{"v2", encodeV2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := replayStreamOnce(t, tr, tc.encode)
			if !reflect.DeepEqual(want, first) {
				t.Fatalf("streamed report diverges from concurrent:\nconcurrent: %+v\nstreamed:   %+v",
					summary(want), summary(first))
			}
			again := replayStreamOnce(t, tr, tc.encode)
			if !reflect.DeepEqual(first, again) {
				t.Fatal("streamed replay diverged across runs")
			}
		})
	}
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shared/%d", workers), func(t *testing.T) {
			p := tracegen.DefaultParams()
			p.FileSize, p.Requests, p.Workers = 32<<20, 256, workers
			tr, err := tracegen.Parallel(p)
			if err != nil {
				t.Fatal(err)
			}
			replay := func(stream bool) *Report {
				rp := NewReplayer(fsim.MustNewFileStore(sharedQueueConfig(simdisk.SSTF)))
				rp.SampleFileSize = p.FileSize
				var rep *Report
				if stream {
					rep, err = rp.ReplayStream("Parallel", streamScanner(t, tr, encodeV2))
				} else {
					rep, err = rp.ReplayConcurrent("Parallel", tr)
				}
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			if want, got := replay(false), replay(true); !reflect.DeepEqual(want, got) {
				t.Fatalf("streamed report diverges from concurrent:\nconcurrent: %+v\nstreamed:   %+v",
					summary(want), summary(got))
			}
		})
	}
}

// TestReplayStreamMixedWorkload covers the multi-app record mix (reads,
// writes, seeks, several PIDs whose regions overlap in the shared
// cache): every PID joins in the first read-ahead, so the kernel steps
// the streamed lanes in the same order as the materialized ones and
// the reports are bit-identical.
func TestReplayStreamMixedWorkload(t *testing.T) {
	p := tracegen.DefaultParams()
	p.FileSize = 16 << 20
	p.Requests = 128
	tr, err := tracegen.Mixed(p)
	if err != nil {
		t.Fatal(err)
	}
	want := replayConcurrentOnce(t, tr)
	if got := replayStreamOnce(t, tr, encodeV2); !reflect.DeepEqual(want, got) {
		t.Fatalf("streamed report diverges from concurrent:\nconcurrent: %+v\nstreamed:   %+v", summary(want), summary(got))
	}
}

// TestReplayStreamAggregate checks the bounded-memory report: histograms
// carry every request, the reservoir respects its capacity, and the
// aggregate populations match the exact (non-aggregated) run.
func TestReplayStreamAggregate(t *testing.T) {
	tr := determinismTrace(t)
	exact := replayConcurrentOnce(t, tr)

	store := fsim.MustNewFileStore(determinismConfig())
	rp := NewReplayer(store)
	rp.SampleFileSize = 32 << 20
	rp.StreamAggregate = true
	rp.StreamReservoir = 16
	rep, err := rp.ReplayStream("Parallel", streamScanner(t, tr, encodeV2))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SampledRequests {
		t.Fatal("aggregated report not marked sampled")
	}
	if rep.TotalRequests != exact.TotalRequests {
		t.Fatalf("TotalRequests = %d, want %d", rep.TotalRequests, exact.TotalRequests)
	}
	if len(rep.Requests) > 16 {
		t.Fatalf("reservoir overflowed its capacity: %d rows", len(rep.Requests))
	}
	if got, want := rep.ReadHist.Total(), exact.Read.N(); got != want {
		t.Fatalf("read histogram holds %d observations, want %d", got, want)
	}
	if got, want := rep.WriteHist.Total(), exact.Write.N(); got != want {
		t.Fatalf("write histogram holds %d observations, want %d", got, want)
	}
	// The per-op summaries stay exact — aggregation only bounds the rows.
	if !reflect.DeepEqual(rep.Read, exact.Read) || !reflect.DeepEqual(rep.Write, exact.Write) {
		t.Fatal("aggregated summaries diverge from the exact run")
	}
	if rep.Elapsed != exact.Elapsed || rep.WorkerTime != exact.WorkerTime {
		t.Fatalf("aggregated clocks diverge: elapsed %v/%v worker %v/%v",
			rep.Elapsed, exact.Elapsed, rep.WorkerTime, exact.WorkerTime)
	}

	// Determinism: a second aggregated run reproduces bit-identically.
	store2 := fsim.MustNewFileStore(determinismConfig())
	rp2 := NewReplayer(store2)
	rp2.SampleFileSize = 32 << 20
	rp2.StreamAggregate = true
	rp2.StreamReservoir = 16
	rep2, err := rp2.ReplayStream("Parallel", streamScanner(t, tr, encodeV2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Fatal("aggregated streamed replay diverged across runs")
	}
}

// TestReplayStreamBadRecord checks that a lane error mid-stream drops
// the lane's remaining records and surfaces the failure.
func TestReplayStreamBadRecord(t *testing.T) {
	tr := determinismTrace(t)
	mid := len(tr.Records) / 2
	good := tr.Records[mid]
	// v1 encoding does not validate, so an invalid op can ride the wire.
	tr.Records[mid].Op = trace.Op(7)
	// More than a lookahead's worth of the failed lane's records follow
	// the bad one, so the failed lane must not bound the reader.
	for range streamQueueDepth + 1 {
		tr.Records = append(tr.Records, good)
	}
	tr.Header.NumRecords = uint32(len(tr.Records))
	store := fsim.MustNewFileStore(determinismConfig())
	rp := NewReplayer(store)
	rp.SampleFileSize = 32 << 20
	_, err := rp.ReplayStream("Parallel", streamScanner(t, tr, encodeV1))
	if err == nil || !strings.Contains(err.Error(), "invalid record") {
		t.Fatalf("invalid record replayed, err = %v", err)
	}
}

func BenchmarkReplayStream(b *testing.B) {
	p := tracegen.DefaultParams()
	p.FileSize = 32 << 20
	p.Requests = 256
	p.Workers = 8
	tr, err := tracegen.Parallel(p)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteV2(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	store := fsim.MustNewFileStore(determinismConfig())
	rp := NewReplayer(store)
	rp.SampleFileSize = 32 << 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := trace.NewScanner(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rp.ReplayStream("Parallel", sc); err != nil {
			b.Fatal(err)
		}
	}
}
