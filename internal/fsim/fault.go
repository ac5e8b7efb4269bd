package fsim

import (
	"errors"
	"sync"
	"time"
)

// ErrInjected is the error FaultStore returns when a scheduled fault
// fires.
var ErrInjected = errors.New("fsim: injected fault")

// FaultStore wraps a Store and fails operations on a schedule — the
// failure-injection substrate the benchmark and replay tests use to
// verify error paths. The schedule is an every-Nth counter: it fails
// the FailEvery'th operation across all operations (Create, Open,
// Remove, Stat, and every File operation on handles the store opened),
// then the counter continues. The zero schedule injects nothing. Seeded,
// op-targeted injection with retry is the store's own session
// machinery (Config.Inject), not this wrapper's.
type FaultStore struct {
	inner Store

	mu        sync.Mutex
	ops       int64
	failEvery int64
	injected  int64
}

// NewFaultStore wraps inner, failing every failEvery'th operation
// (0 disables injection).
func NewFaultStore(inner Store, failEvery int64) *FaultStore {
	if failEvery < 0 {
		failEvery = 0
	}
	return &FaultStore{inner: inner, failEvery: failEvery}
}

var _ Store = (*FaultStore)(nil)

// Injected returns how many faults have fired.
func (s *FaultStore) Injected() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

// shouldFail advances the operation counter and reports whether this
// operation is scheduled to fail.
func (s *FaultStore) shouldFail() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failEvery == 0 {
		return false
	}
	s.ops++
	if s.ops%s.failEvery == 0 {
		s.injected++
		return true
	}
	return false
}

// Create passes through unless a fault fires.
func (s *FaultStore) Create(name string, data []byte) (time.Duration, error) {
	if s.shouldFail() {
		return 0, ErrInjected
	}
	return s.inner.Create(name, data)
}

// Open passes through unless a fault fires.
func (s *FaultStore) Open(name string) (File, time.Duration, error) {
	if s.shouldFail() {
		return nil, 0, ErrInjected
	}
	f, dur, err := s.inner.Open(name)
	if err != nil {
		return nil, dur, err
	}
	return &faultFile{inner: f, store: s}, dur, nil
}

// Remove passes through unless a fault fires.
func (s *FaultStore) Remove(name string) (time.Duration, error) {
	if s.shouldFail() {
		return 0, ErrInjected
	}
	return s.inner.Remove(name)
}

// Stat passes through unless a fault fires.
func (s *FaultStore) Stat(name string) (int64, time.Duration, error) {
	if s.shouldFail() {
		return 0, 0, ErrInjected
	}
	return s.inner.Stat(name)
}

// Exists passes through (metadata probes do not consume fault budget).
func (s *FaultStore) Exists(name string) bool { return s.inner.Exists(name) }

// Names passes through.
func (s *FaultStore) Names() []string { return s.inner.Names() }

// faultFile interposes on handle operations.
type faultFile struct {
	inner File
	store *FaultStore
}

var _ File = (*faultFile)(nil)

func (f *faultFile) Read(p []byte) (int, time.Duration, error) {
	if f.store.shouldFail() {
		return 0, 0, ErrInjected
	}
	return f.inner.Read(p)
}

func (f *faultFile) Discard(n int64) (int64, time.Duration, error) {
	if f.store.shouldFail() {
		return 0, 0, ErrInjected
	}
	return f.inner.Discard(n)
}

func (f *faultFile) Write(p []byte) (int, time.Duration, error) {
	if f.store.shouldFail() {
		return 0, 0, ErrInjected
	}
	return f.inner.Write(p)
}

func (f *faultFile) SeekTo(offset int64, whence int) (int64, time.Duration, error) {
	if f.store.shouldFail() {
		return 0, 0, ErrInjected
	}
	return f.inner.SeekTo(offset, whence)
}

func (f *faultFile) Close() (time.Duration, error) {
	// Close never injects: resources must stay releasable.
	return f.inner.Close()
}

func (f *faultFile) Size() int64  { return f.inner.Size() }
func (f *faultFile) Name() string { return f.inner.Name() }
