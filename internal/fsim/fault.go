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
// verify error paths. The zero schedule injects nothing.
//
// Two schedules are available. NewFaultStore's every-Nth counter fails
// the FailEvery'th operation across all operations (Create, Open,
// Remove, and every File operation on handles the store opened), then
// the counter continues. NewSeededFaultStore rolls an InjectSpec's
// deterministic xorshift64 hash per operation instead: targeted op
// classes fault with 1-in-Rate incidence up to the spec's budget, so a
// long replay sprinkles a bounded, seed-reproducible fault set instead
// of a fixed cadence.
type FaultStore struct {
	inner Store

	mu        sync.Mutex
	ops       int64
	failEvery int64
	spec      InjectSpec
	budget    int64 // remaining seeded-mode faults; -1 unlimited
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

// NewSeededFaultStore wraps inner with spec's deterministic seeded
// schedule: each operation whose class spec.Ops targets rolls the
// xorshift64 hash keyed on (seed, op index) and fails on a 1-in-Rate
// hit, up to spec.Budget total injections (0 = unlimited).
func NewSeededFaultStore(inner Store, spec InjectSpec) *FaultStore {
	budget := int64(-1)
	if spec.Budget > 0 {
		budget = spec.Budget
	}
	return &FaultStore{inner: inner, spec: spec, budget: budget}
}

var _ Store = (*FaultStore)(nil)

// Injected returns how many faults have fired.
func (s *FaultStore) Injected() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

// shouldFail advances the operation counter and reports whether this
// operation is scheduled to fail. The every-Nth path is checked first
// and behaves exactly as it always has; the seeded path rolls the
// spec's hash on the global op index.
func (s *FaultStore) shouldFail(op OpKind) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failEvery != 0 {
		s.ops++
		if s.ops%s.failEvery == 0 {
			s.injected++
			return true
		}
		return false
	}
	if s.spec.Rate == 0 {
		return false
	}
	s.ops++
	if !s.spec.Ops.Has(op) || s.budget == 0 {
		return false
	}
	if fire, _ := s.spec.roll(0, uint64(s.ops), 0); fire {
		s.injected++
		if s.budget > 0 {
			s.budget--
		}
		return true
	}
	return false
}

// Create passes through unless a fault fires.
func (s *FaultStore) Create(name string, data []byte) (time.Duration, error) {
	if s.shouldFail(OpCreate) {
		return 0, ErrInjected
	}
	return s.inner.Create(name, data)
}

// Open passes through unless a fault fires.
func (s *FaultStore) Open(name string) (File, time.Duration, error) {
	if s.shouldFail(OpOpen) {
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
	if s.shouldFail(OpRemove) {
		return 0, ErrInjected
	}
	return s.inner.Remove(name)
}

// Stat passes through unless a fault fires.
func (s *FaultStore) Stat(name string) (int64, time.Duration, error) {
	if s.shouldFail(OpStat) {
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
	if f.store.shouldFail(OpRead) {
		return 0, 0, ErrInjected
	}
	return f.inner.Read(p)
}

func (f *faultFile) Discard(n int64) (int64, time.Duration, error) {
	if f.store.shouldFail(OpRead) {
		return 0, 0, ErrInjected
	}
	return f.inner.Discard(n)
}

func (f *faultFile) Write(p []byte) (int, time.Duration, error) {
	if f.store.shouldFail(OpWrite) {
		return 0, 0, ErrInjected
	}
	return f.inner.Write(p)
}

func (f *faultFile) SeekTo(offset int64, whence int) (int64, time.Duration, error) {
	if f.store.shouldFail(OpSeek) {
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
