package tracesim

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/fsim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func TestRecorderCapturesWorkload(t *testing.T) {
	inner := fsim.MustNewFileStore(fsim.DefaultConfig())
	rec := NewRecordingStore(inner)
	if _, err := rec.Create("data", make([]byte, 1<<16)); err != nil {
		t.Fatal(err)
	}
	f, _, err := rec.Open("data")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	f.Read(buf)
	f.SeekTo(32768, io.SeekStart)
	f.Read(buf)
	f.Write([]byte("tail"))
	f.Close()

	tr := rec.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("captured trace invalid: %v", err)
	}
	stats := trace.ComputeStats(tr)
	if stats.Ops[trace.OpOpen] != 1 || stats.Ops[trace.OpClose] != 1 {
		t.Fatalf("open/close = %d/%d", stats.Ops[trace.OpOpen], stats.Ops[trace.OpClose])
	}
	if stats.Ops[trace.OpRead] != 2 || stats.Ops[trace.OpWrite] != 1 || stats.Ops[trace.OpSeek] != 1 {
		t.Fatalf("op mix wrong: %+v", stats.Ops)
	}
	if tr.Header.SampleFile != "data" {
		t.Fatalf("sample file %q", tr.Header.SampleFile)
	}
	// Offsets must reflect the handle position at each operation.
	var reads []trace.Record
	for _, r := range tr.Records {
		if r.Op == trace.OpRead {
			reads = append(reads, r)
		}
	}
	if reads[0].Offset != 0 || reads[1].Offset != 32768 {
		t.Fatalf("read offsets %d, %d", reads[0].Offset, reads[1].Offset)
	}
}

func TestRecordedTraceIsReplayable(t *testing.T) {
	// Record a workload, serialize the trace, read it back, replay it —
	// the full capture-to-replay pipeline.
	inner := fsim.MustNewFileStore(fsim.DefaultConfig())
	rec := NewRecordingStore(inner)
	rec.Create("w", make([]byte, 1<<20))
	f, _, _ := rec.Open("w")
	buf := make([]byte, 64<<10)
	for i := 0; i < 8; i++ {
		f.Read(buf)
	}
	f.Close()

	var encoded bytes.Buffer
	if err := trace.Write(&encoded, rec.Trace()); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.Read(&encoded)
	if err != nil {
		t.Fatal(err)
	}

	replayStore := fsim.MustNewFileStore(fsim.DefaultConfig())
	rp := NewReplayer(replayStore)
	rp.SampleFileSize = 1 << 20
	rep, err := rp.Replay("captured", decoded)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Read.N() != 8 {
		t.Fatalf("replayed %d reads, want 8", rep.Read.N())
	}
}

func TestRecorderPassesThroughErrors(t *testing.T) {
	inner := fsim.MustNewFileStore(fsim.DefaultConfig())
	rec := NewRecordingStore(inner)
	if _, _, err := rec.Open("missing"); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	if len(rec.Trace().Records) != 0 {
		t.Fatal("failed open was recorded")
	}
}

func TestRecorderMultiProcess(t *testing.T) {
	inner := fsim.MustNewFileStore(fsim.DefaultConfig())
	rec := NewRecordingStore(inner)
	rec.Create("shared", make([]byte, 1<<16))
	for pid := uint32(0); pid < 3; pid++ {
		rec.SetNextPID(pid)
		f, _, err := rec.Open("shared")
		if err != nil {
			t.Fatal(err)
		}
		f.Read(make([]byte, 128))
		f.Close()
	}
	tr := rec.Trace()
	pids := map[uint32]bool{}
	for _, r := range tr.Records {
		pids[r.PID] = true
	}
	if len(pids) != 3 {
		t.Fatalf("captured %d pids, want 3", len(pids))
	}
}

func TestReplayConcurrentPgrep(t *testing.T) {
	p := testParams()
	tr, err := tracegen.Pgrep(p)
	if err != nil {
		t.Fatal(err)
	}
	store := fsim.MustNewFileStore(fsim.DefaultConfig())
	rp := NewReplayer(store)
	rp.SampleFileSize = p.FileSize
	rep, err := rp.ReplayConcurrent("Pgrep", tr)
	if err != nil {
		t.Fatal(err)
	}
	// Same op counts as a sequential replay of the same trace.
	seqStore := fsim.MustNewFileStore(fsim.DefaultConfig())
	seqRp := NewReplayer(seqStore)
	seqRp.SampleFileSize = p.FileSize
	seqRep, err := seqRp.Replay("Pgrep", tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Read.N() != seqRep.Read.N() {
		t.Fatalf("concurrent read count %d != sequential %d", rep.Read.N(), seqRep.Read.N())
	}
	// PID 1-3's records precede their own opens (the trace has one open
	// record, attributed to PID 0), so the concurrent replay issues
	// implicit opens: one per worker.
	if rep.Open.N() != 4 {
		t.Fatalf("concurrent opens = %d, want 4 (one per process)", rep.Open.N())
	}
}

func TestReplayConcurrentRejectsInvalid(t *testing.T) {
	store := fsim.MustNewFileStore(fsim.DefaultConfig())
	rp := NewReplayer(store)
	bad := &trace.Trace{Header: trace.Header{SampleFile: ""}}
	if _, err := rp.ReplayConcurrent("bad", bad); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

// TestRecorderDiscardMatchesRead: replay bills reads through Discard,
// so a recorded Discard must cost what the recorded Read costs and
// leave the same trace behind. Each case runs on twin stores.
func TestRecorderDiscardMatchesRead(t *testing.T) {
	const size = 1 << 20
	for _, c := range []struct {
		name  string
		at, n int64
	}{
		{"mid file", 4096, 64 << 10},
		{"short tail", size - 1000, 64 << 10},
		{"past EOF", 2 * size, 4096},
	} {
		t.Run(c.name, func(t *testing.T) {
			open := func() (fsim.File, *fsim.FileStore, *RecordingStore) {
				inner := fsim.MustNewFileStore(fsim.DefaultConfig())
				rec := NewRecordingStore(inner)
				if _, err := rec.Create("data", make([]byte, size)); err != nil {
					t.Fatal(err)
				}
				f, _, err := rec.Open("data")
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := f.SeekTo(c.at, io.SeekStart); err != nil {
					t.Fatal(err)
				}
				return f, inner, rec
			}
			rf, rinner, rrec := open()
			df, dinner, drec := open()
			rn, rd, rerr := rf.Read(make([]byte, c.n))
			dn, dd, derr := df.Discard(c.n)
			if int64(rn) != dn || rd != dd || rerr != derr {
				t.Fatalf("Discard = (%d, %v, %v), Read = (%d, %v, %v)", dn, dd, derr, rn, rd, rerr)
			}
			if got, want := dinner.Cache().Stats(), rinner.Cache().Stats(); got != want {
				t.Fatalf("cache stats after Discard %+v, after Read %+v", got, want)
			}
			if got, want := dinner.TotalDiskStats(), rinner.TotalDiskStats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("disk stats after Discard %+v, after Read %+v", got, want)
			}
			untimed := func(tr *trace.Trace) *trace.Trace {
				for i := range tr.Records {
					tr.Records[i].WallClock, tr.Records[i].ProcClock = 0, 0
				}
				return tr
			}
			if got, want := untimed(drec.Trace()), untimed(rrec.Trace()); !reflect.DeepEqual(got, want) {
				t.Fatalf("trace after Discard %+v, after Read %+v", got.Records, want.Records)
			}
		})
	}
}
