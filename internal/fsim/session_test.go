package fsim

import (
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/simdisk"
)

// writebackConfig enables background write-back on the default store.
func writebackConfig() Config {
	cfg := DefaultConfig()
	cfg.Cache.Shards = 8
	cfg.Cache.WritebackThreshold = 8
	cfg.Cache.WritebackPolicy = simdisk.SCAN
	return cfg
}

func TestSessionLanesAdvanceIndependently(t *testing.T) {
	s := MustNewFileStore(DefaultConfig())
	if _, err := s.CreateSized("big", 64<<20); err != nil {
		t.Fatal(err)
	}
	afterCreate := s.Clock().Now()

	a := s.NewSession()
	b := s.NewSession()
	fa, _, err := a.Open("big")
	if err != nil {
		t.Fatal(err)
	}
	fb, _, err := b.Open("big")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	for i := 0; i < 8; i++ {
		if _, _, err := fa.Read(buf); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	}
	if _, _, err := fb.Read(buf[:4096]); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	fa.Close()
	fb.Close()

	ea := a.Clock().Now().Sub(afterCreate)
	eb := b.Clock().Now().Sub(afterCreate)
	if ea <= eb {
		t.Fatalf("8 MB lane (%v) not slower than 4 KB lane (%v)", ea, eb)
	}
	// The default lane did not move: sessions never charge the store clock.
	if got := s.Clock().Now(); !got.Equal(afterCreate) {
		t.Fatalf("default lane moved from %v to %v", afterCreate, got)
	}
	// The merged timeline is the furthest lane, not the sum.
	if got := s.Timeline().MaxNow(); !got.Equal(a.Clock().Now()) {
		t.Fatalf("timeline MaxNow %v != longest lane %v", got, a.Clock().Now())
	}
}

// TestSessionsConcurrentUnderRace drives many sessions in parallel over
// one store: the shared namespace, cache, and frame pool under -race.
func TestSessionsConcurrentUnderRace(t *testing.T) {
	s := MustNewFileStore(writebackConfig())
	if _, err := s.CreateSized("shared", 32<<20); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.NewSession()
			f, _, err := sess.Open("shared")
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 64<<10)
			base := int64(w) * (4 << 20)
			for i := 0; i < 32; i++ {
				if _, _, err := f.SeekTo(base+int64(i)*(64<<10), io.SeekStart); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := f.Read(buf); err != nil && err != io.EOF {
					t.Error(err)
					return
				}
				if i%4 == 3 {
					if _, _, err := f.SeekTo(base, io.SeekStart); err != nil {
						t.Error(err)
						return
					}
					if _, _, err := f.Write(buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if _, err := f.Close(); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	done, _ := s.Settle()
	if got := s.Cache().DirtyPages(); got != 0 {
		t.Fatalf("%d dirty pages survived Settle", got)
	}
	if done.Before(s.Timeline().Start()) {
		t.Fatal("settle time precedes the timeline start")
	}
	if s.TotalDiskStats().Ops() == 0 {
		t.Fatal("no disk traffic recorded across session views")
	}
}

// TestAsyncCloseUnderWriteback pins the close semantics split: without
// write-back a dirty close pays for its flush; with write-back it pays
// only CloseCost and the flush lands on the background lanes.
func TestAsyncCloseUnderWriteback(t *testing.T) {
	dirtyClose := func(cfg Config) (time.Duration, *FileStore) {
		s := MustNewFileStore(cfg)
		if _, err := s.CreateSized("f", 8<<20); err != nil {
			t.Fatal(err)
		}
		f, _, err := s.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.Write(make([]byte, 1<<20)); err != nil {
			t.Fatal(err)
		}
		d, err := f.Close()
		if err != nil {
			t.Fatal(err)
		}
		return d, s
	}

	syncDur, _ := dirtyClose(DefaultConfig())
	asyncDur, s := dirtyClose(writebackConfig())
	if asyncDur != s.cfg.CloseCost {
		t.Fatalf("async close cost %v, want bare CloseCost %v", asyncDur, s.cfg.CloseCost)
	}
	if syncDur <= asyncDur {
		t.Fatalf("sync close (%v) not slower than async close (%v)", syncDur, asyncDur)
	}
	// The flush still happens — on the background lanes, at the close.
	if s.Cache().Stats().WritebackPages == 0 {
		t.Fatal("the close handed no pages to write-back")
	}
	s.Settle()
	if got := s.Cache().DirtyPages(); got != 0 {
		t.Fatalf("%d dirty pages survived", got)
	}
	if s.Cache().WritebackHorizon().IsZero() {
		t.Fatal("write-back consumed no simulated time")
	}
}

// TestSettleWithoutWritebackFlushes: the settle path on a plain store is
// the deterministic elevator flush, charged to foreground time.
func TestSettleWithoutWritebackFlushes(t *testing.T) {
	s := MustNewFileStore(DefaultConfig())
	if _, err := s.CreateSized("f", 1<<20); err != nil {
		t.Fatal(err)
	}
	f, _, err := s.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Write(make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	// Leave the handle open so close-flush has not run.
	if s.Cache().DirtyPages() == 0 {
		t.Fatal("setup produced no dirty pages")
	}
	_, d := s.Settle()
	if d <= 0 {
		t.Fatal("settle flush charged no time")
	}
	if got := s.Cache().DirtyPages(); got != 0 {
		t.Fatalf("%d dirty pages survived Settle", got)
	}
}

// TestNamespaceConcurrentDirectoryOps hammers Create/Open/Remove/Names
// from many goroutines — the sharded-namespace satellite, under -race.
func TestNamespaceConcurrentDirectoryOps(t *testing.T) {
	s := MustNewFileStore(DefaultConfig())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := s.NewSession()
			for i := 0; i < 50; i++ {
				name := string(rune('a'+w)) + "-file"
				if _, err := sess.Create(name, []byte("contents")); err != nil {
					t.Error(err)
					return
				}
				if !sess.Exists(name) {
					t.Errorf("created %s does not exist", name)
					return
				}
				f, _, err := sess.Open(name)
				if err != nil {
					t.Error(err)
					return
				}
				f.Close()
				_ = sess.Names()
				if i%10 == 9 {
					if _, err := sess.Remove(name); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Every worker left either zero or one file behind (last iteration
	// removed it); the namespace is consistent and sorted.
	names := s.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}
