package fsim

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/clock"
)

// OSStore is the Store implementation backed by a real directory on the
// host filesystem, timed with the real clock. Benchmarks run against it
// when genuine OS I/O is wanted (the numbers are then hardware-dependent
// and non-deterministic, like the paper's own).
type OSStore struct {
	dir string
	clk clock.Clock
}

// NewOSStore returns a store rooted at dir, creating it if needed.
func NewOSStore(dir string) (*OSStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fsim: creating store dir: %w", err)
	}
	return &OSStore{dir: dir, clk: clock.RealClock{}}, nil
}

// path maps a store name to a host path, rejecting escapes from the root.
func (s *OSStore) path(name string) (string, error) {
	p := filepath.Join(s.dir, filepath.Clean("/"+name))
	return p, nil
}

// Create writes data to the named file.
func (s *OSStore) Create(name string, data []byte) (time.Duration, error) {
	p, err := s.path(name)
	if err != nil {
		return 0, err
	}
	start := s.clk.Now()
	err = os.WriteFile(p, data, 0o644)
	return s.clk.Now().Sub(start), err
}

// Open opens the named file for reading and writing.
func (s *OSStore) Open(name string) (File, time.Duration, error) {
	p, err := s.path(name)
	if err != nil {
		return nil, 0, err
	}
	start := s.clk.Now()
	f, err := os.OpenFile(p, os.O_RDWR, 0o644)
	elapsed := s.clk.Now().Sub(start)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, elapsed, &fs.PathError{Op: "open", Path: name, Err: ErrNotExist}
		}
		return nil, elapsed, err
	}
	return &osFile{f: f, name: name, clk: s.clk}, elapsed, nil
}

// Remove deletes the named file.
func (s *OSStore) Remove(name string) (time.Duration, error) {
	p, err := s.path(name)
	if err != nil {
		return 0, err
	}
	start := s.clk.Now()
	err = os.Remove(p)
	elapsed := s.clk.Now().Sub(start)
	if os.IsNotExist(err) {
		return elapsed, &fs.PathError{Op: "remove", Path: name, Err: ErrNotExist}
	}
	return elapsed, err
}

// Stat reports the named file's size, timed with the real clock.
func (s *OSStore) Stat(name string) (int64, time.Duration, error) {
	p, err := s.path(name)
	if err != nil {
		return 0, 0, err
	}
	start := s.clk.Now()
	info, err := os.Stat(p)
	elapsed := s.clk.Now().Sub(start)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, elapsed, &fs.PathError{Op: "stat", Path: name, Err: ErrNotExist}
		}
		return 0, elapsed, err
	}
	return info.Size(), elapsed, nil
}

// Exists reports whether the named file exists.
func (s *OSStore) Exists(name string) bool {
	p, err := s.path(name)
	if err != nil {
		return false
	}
	_, err = os.Stat(p)
	return err == nil
}

// Names returns the sorted names of regular files in the store.
func (s *OSStore) Names() []string {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if e.Type().IsRegular() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out
}

var _ Store = (*OSStore)(nil)

// osFile adapts *os.File to the timed File interface.
type osFile struct {
	f      *os.File
	name   string
	clk    clock.Clock
	closed bool
	// scratch receives the bytes Discard reads and drops.
	scratch []byte
}

var _ File = (*osFile)(nil)

func (f *osFile) Name() string { return f.name }

func (f *osFile) Size() int64 {
	info, err := f.f.Stat()
	if err != nil {
		return 0
	}
	return info.Size()
}

func (f *osFile) Read(p []byte) (int, time.Duration, error) {
	if f.closed {
		return 0, 0, ErrClosed
	}
	start := f.clk.Now()
	n, err := f.f.Read(p)
	return n, f.clk.Now().Sub(start), err
}

// Discard makes the same single host read as Read of an n-byte buffer,
// into the handle's scratch buffer, so a replay against the real store
// still times the read it bills.
func (f *osFile) Discard(n int64) (int64, time.Duration, error) {
	if n < 0 {
		return 0, 0, errNegativeDiscard
	}
	if int64(cap(f.scratch)) < n {
		f.scratch = make([]byte, n)
	}
	m, d, err := f.Read(f.scratch[:n])
	return int64(m), d, err
}

func (f *osFile) Write(p []byte) (int, time.Duration, error) {
	if f.closed {
		return 0, 0, ErrClosed
	}
	start := f.clk.Now()
	n, err := f.f.Write(p)
	return n, f.clk.Now().Sub(start), err
}

func (f *osFile) SeekTo(offset int64, whence int) (int64, time.Duration, error) {
	if f.closed {
		return 0, 0, ErrClosed
	}
	start := f.clk.Now()
	pos, err := f.f.Seek(offset, whence)
	return pos, f.clk.Now().Sub(start), err
}

func (f *osFile) Close() (time.Duration, error) {
	if f.closed {
		return 0, ErrClosed
	}
	f.closed = true
	start := f.clk.Now()
	err := f.f.Close()
	return f.clk.Now().Sub(start), err
}
