package fsim

import (
	"io"
	"testing"
)

// TestWarmReadZeroAllocs pins the full warm read path — seek, file
// lock, data copy, cache bulk lookup, virtual clock — at zero heap
// allocations per operation. This is the replay engine's hot loop; an
// allocation here multiplies across every record of every trace.
func TestWarmReadZeroAllocs(t *testing.T) {
	s := MustNewFileStore(DefaultConfig())
	if _, err := s.Create("f", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	f, _, err := s.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 64<<10)
	f.Read(buf) // warm
	allocs := testing.AllocsPerRun(100, func() {
		f.SeekTo(0, io.SeekStart)
		f.Read(buf)
	})
	if allocs != 0 {
		t.Fatalf("warm read allocates %.1f objects/op, want 0", allocs)
	}
}

// TestWarmSparseReadZeroAllocs is the same pin for the sparse sample
// file the trace benchmarks actually replay against (reads zero-fill
// instead of copying).
func TestWarmSparseReadZeroAllocs(t *testing.T) {
	s := MustNewFileStore(DefaultConfig())
	if _, err := s.CreateSized("big", 1<<30); err != nil {
		t.Fatal(err)
	}
	f, _, err := s.Open("big")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 64<<10)
	f.Read(buf) // warm
	allocs := testing.AllocsPerRun(100, func() {
		f.SeekTo(0, io.SeekStart)
		f.Read(buf)
	})
	if allocs != 0 {
		t.Fatalf("warm sparse read allocates %.1f objects/op, want 0", allocs)
	}
}

// TestWarmSparseDiscardZeroAllocs pins the cost-only read replay bills
// every trace read through: warm sparse Discard allocates nothing.
func TestWarmSparseDiscardZeroAllocs(t *testing.T) {
	s := MustNewFileStore(DefaultConfig())
	if _, err := s.CreateSized("big", 1<<30); err != nil {
		t.Fatal(err)
	}
	f, _, err := s.Open("big")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Discard(64 << 10) // warm
	allocs := testing.AllocsPerRun(100, func() {
		f.SeekTo(0, io.SeekStart)
		f.Discard(64 << 10)
	})
	if allocs != 0 {
		t.Fatalf("warm sparse discard allocates %.1f objects/op, want 0", allocs)
	}
}
