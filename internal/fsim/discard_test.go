package fsim

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"
)

// discardCase opens a handle on file "f" at position at on a fresh
// store, and asks for n bytes from there.
type discardCase struct {
	name   string
	cfg    func(*Config) // tweaks DefaultConfig; nil keeps it
	real   bool          // an OSStore in a temp dir instead of a FileStore
	sparse bool          // CreateSized instead of Create
	size   int64
	// failEvery > 0 wraps the store in a FaultStore: open and seek are
	// its first two ops, so 3 injects the read.
	failEvery int64
	at, n     int64
	closed    bool
	// wantN and wantErr are what both calls must return.
	wantN   int64
	wantErr error
}

// open builds one twin: the handle, and the simulated store whose
// statistics must agree (nil for the real store).
func (c discardCase) open(t *testing.T) (File, *FileStore) {
	t.Helper()
	var st Store
	var sim *FileStore
	if c.real {
		st = newOSStore(t)
	} else {
		cfg := DefaultConfig()
		if c.cfg != nil {
			c.cfg(&cfg)
		}
		sim = MustNewFileStore(cfg)
		st = sim
	}
	var err error
	if c.sparse {
		_, err = sim.CreateSized("f", c.size)
	} else {
		_, err = st.Create("f", make([]byte, c.size))
	}
	if err != nil {
		t.Fatal(err)
	}
	if sim != nil {
		st = sim.NewSession() // a replay lane; only these inject
	}
	if c.failEvery > 0 {
		st = NewFaultStore(st, c.failEvery)
	}
	f, _, err := st.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.SeekTo(c.at, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if c.closed {
		if _, err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return f, sim
}

// TestDiscardMatchesRead: Discard(n) returns, bills, fails and advances
// exactly as Read of an n-byte buffer does. Each case runs on twin
// stores, one read through Read and one through Discard, and compares
// the results, the position afterwards, and what the cache and the
// disks recorded.
func TestDiscardMatchesRead(t *testing.T) {
	const mb = 1 << 20
	for _, c := range []discardCase{
		{name: "dense", size: mb, at: 4096, n: 64 << 10, wantN: 64 << 10},
		{name: "sparse", sparse: true, size: 1 << 30, at: 1 << 29, n: 64 << 10, wantN: 64 << 10},
		{name: "sparse sharded", sparse: true, size: 1 << 30, at: 8192, n: 256 << 10, wantN: 256 << 10,
			cfg: func(cfg *Config) { cfg.Cache.Shards = 8 }},
		{name: "short tail", size: mb, at: mb - 1000, n: 64 << 10, wantN: 1000, wantErr: io.EOF},
		{name: "past EOF", sparse: true, size: mb, at: 2 * mb, n: 4096, wantErr: io.EOF},
		{name: "zero length", size: mb, at: 0, n: 0},
		{name: "closed", size: mb, n: 4096, closed: true, wantErr: ErrClosed},
		{name: "session injection", sparse: true, size: 1 << 30, n: 64 << 10, wantN: 64 << 10,
			cfg: func(cfg *Config) {
				cfg.Inject = InjectSpec{Seed: 3, Rate: 2, Ops: MaskOf(OpRead)}
				cfg.Retry = RetryPolicy{Max: 8, Base: 50 * time.Microsecond}
			}},
		{name: "fault store", size: mb, n: 4096, failEvery: 3, wantErr: ErrInjected},
		{name: "os", real: true, size: 100 << 10, at: 4096, n: 64 << 10, wantN: 64 << 10},
		{name: "os short tail", real: true, size: 8192, at: 4096, n: 64 << 10, wantN: 4096},
	} {
		t.Run(c.name, func(t *testing.T) {
			rf, rsim := c.open(t)
			df, dsim := c.open(t)
			rn, rd, rerr := rf.Read(make([]byte, c.n))
			dn, dd, derr := df.Discard(c.n)
			if int64(rn) != dn || fmt.Sprint(rerr) != fmt.Sprint(derr) {
				t.Fatalf("Discard = (%d, %v), Read = (%d, %v)", dn, derr, rn, rerr)
			}
			if dn != c.wantN || !errors.Is(derr, c.wantErr) {
				t.Fatalf("Discard = (%d, %v), want (%d, %v)", dn, derr, c.wantN, c.wantErr)
			}
			if c.real {
				if dd < 0 {
					t.Fatalf("Discard took %v", dd)
				}
			} else {
				if dd != rd {
					t.Fatalf("Discard billed %v, Read %v", dd, rd)
				}
				if got, want := dsim.Cache().Stats(), rsim.Cache().Stats(); got != want {
					t.Fatalf("cache stats after Discard %+v, after Read %+v", got, want)
				}
				if got, want := dsim.TotalDiskStats(), rsim.TotalDiskStats(); !reflect.DeepEqual(got, want) {
					t.Fatalf("disk stats after Discard %+v, after Read %+v", got, want)
				}
				if got, want := dsim.RecoveryStats(), rsim.RecoveryStats(); got != want {
					t.Fatalf("recovery stats after Discard %+v, after Read %+v", got, want)
				}
				if c.name == "session injection" && dsim.RecoveryStats().Retried == 0 {
					t.Fatal("the injection case retried nothing")
				}
			}
			rpos, _, rerr := rf.SeekTo(0, io.SeekCurrent)
			dpos, _, derr := df.SeekTo(0, io.SeekCurrent)
			if rpos != dpos || fmt.Sprint(rerr) != fmt.Sprint(derr) {
				t.Fatalf("position after Discard %d (%v), after Read %d (%v)", dpos, derr, rpos, rerr)
			}
		})
	}
}

func TestDiscardRejectsNegativeCount(t *testing.T) {
	for _, c := range []discardCase{
		{name: "sim", size: 4096},
		{name: "os", real: true, size: 4096},
	} {
		f, _ := c.open(t)
		if _, _, err := f.Discard(-1); err == nil {
			t.Fatalf("%s: Discard(-1) succeeded", c.name)
		}
	}
}
