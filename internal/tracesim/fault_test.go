package tracesim

import (
	"errors"
	"testing"

	"repro/internal/fsim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// TestReplaySurfacesInjectedFaults verifies the replay engine propagates
// storage errors with context instead of panicking or silently dropping
// operations.
func TestReplaySurfacesInjectedFaults(t *testing.T) {
	p := testParams()
	tr, err := tracegen.Dmine(p)
	if err != nil {
		t.Fatal(err)
	}
	inner := fsim.MustNewFileStore(fsim.DefaultConfig())
	faulty := fsim.NewFaultStore(inner, 10)
	rp := NewReplayer(faulty)
	rp.SampleFileSize = p.FileSize
	_, err = rp.Replay("Dmine", tr)
	if !errors.Is(err, fsim.ErrInjected) {
		t.Fatalf("replay err = %v, want injected fault", err)
	}
	if faulty.Injected() == 0 {
		t.Fatal("no fault fired")
	}
}

// TestReplayConcurrentSurfacesInjectedFaults does the same for the
// multi-process replay path.
func TestReplayConcurrentSurfacesInjectedFaults(t *testing.T) {
	p := testParams()
	tr, err := tracegen.Pgrep(p)
	if err != nil {
		t.Fatal(err)
	}
	inner := fsim.MustNewFileStore(fsim.DefaultConfig())
	faulty := fsim.NewFaultStore(inner, 25)
	rp := NewReplayer(faulty)
	rp.SampleFileSize = p.FileSize
	if _, err := rp.ReplayConcurrent("Pgrep", tr); !errors.Is(err, fsim.ErrInjected) {
		t.Fatalf("concurrent replay err = %v, want injected fault", err)
	}
}

// TestReplayCleanWithInjectorDisabled pins the zero-schedule baseline.
func TestReplayCleanWithInjectorDisabled(t *testing.T) {
	p := testParams()
	tr, err := tracegen.Titan(p)
	if err != nil {
		t.Fatal(err)
	}
	inner := fsim.MustNewFileStore(fsim.DefaultConfig())
	faulty := fsim.NewFaultStore(inner, 0)
	rp := NewReplayer(faulty)
	rp.SampleFileSize = p.FileSize
	if _, err := rp.Replay("Titan", tr); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReplaysPositionImplicitOpenFault: a lane whose first
// record is a read opens the sample file implicitly. When that open
// fails, ReplayConcurrent and ReplayStream both name the lane's PID and
// record, as they do for every other lane failure.
func TestConcurrentReplaysPositionImplicitOpenFault(t *testing.T) {
	tr := &trace.Trace{
		Header:  trace.Header{NumProcesses: 1, NumFiles: 1, NumRecords: 1, SampleFile: "sample.dat"},
		Records: []trace.Record{{Op: trace.OpRead, PID: 3, Count: 1, Length: 4096}},
	}
	replayer := func() *Replayer {
		cfg := fsim.DefaultConfig()
		cfg.Inject = fsim.InjectSpec{Rate: 1, Permanent: 1, Ops: fsim.MaskOf(fsim.OpOpen)}
		store := fsim.MustNewFileStore(cfg)
		t.Cleanup(func() { store.Close() })
		rp := NewReplayer(store)
		rp.SampleFileSize = 1 << 20
		return rp
	}
	const want = "tracesim: pid 3 record 0 (read): fsim: permanent injected fault on open"
	if _, err := replayer().ReplayConcurrent("open", tr); err == nil || err.Error() != want {
		t.Errorf("ReplayConcurrent err = %v, want %q", err, want)
	}
	if _, err := replayer().ReplayStream("open", streamScanner(t, tr, encodeV2)); err == nil || err.Error() != want {
		t.Errorf("ReplayStream err = %v, want %q", err, want)
	}
}
