package tracesim

import (
	"sync"
	"time"

	"repro/internal/fsim"
	"repro/internal/trace"
)

// RecordingStore wraps a fsim.Store and captures every operation as a
// trace record — the inverse of Replay, and the mechanism the original
// University of Maryland traces were produced with (instrumented
// applications). Record a live workload once, then replay it anywhere:
//
//	rec := tracesim.NewRecordingStore(store)
//	... run any workload against rec ...
//	tr := rec.Trace()       // a valid, replayable UMDT trace
type RecordingStore struct {
	inner fsim.Store

	mu      sync.Mutex
	records []trace.Record
	sample  string
	files   map[string]bool
	nextPID uint32
	start   time.Time
	started bool
}

// NewRecordingStore wraps inner.
func NewRecordingStore(inner fsim.Store) *RecordingStore {
	return &RecordingStore{inner: inner, files: make(map[string]bool)}
}

var _ fsim.Store = (*RecordingStore)(nil)

// stamp returns the wall-clock offset for a new record.
func (s *RecordingStore) stamp() int64 {
	now := time.Now()
	if !s.started {
		s.start = now
		s.started = true
	}
	return now.Sub(s.start).Nanoseconds()
}

// add appends a record. Caller must not hold mu.
func (s *RecordingStore) add(rec trace.Record) {
	s.mu.Lock()
	rec.WallClock = s.stamp()
	rec.ProcClock = rec.WallClock
	s.records = append(s.records, rec)
	s.mu.Unlock()
}

// Create passes through and notes the file.
func (s *RecordingStore) Create(name string, data []byte) (time.Duration, error) {
	dur, err := s.inner.Create(name, data)
	if err == nil {
		s.mu.Lock()
		s.files[name] = true
		s.mu.Unlock()
	}
	return dur, err
}

// Open passes through and records an open. The first opened file becomes
// the trace's sample file.
func (s *RecordingStore) Open(name string) (fsim.File, time.Duration, error) {
	f, dur, err := s.inner.Open(name)
	if err != nil {
		return nil, dur, err
	}
	s.mu.Lock()
	if s.sample == "" {
		s.sample = name
	}
	s.files[name] = true
	pid := s.nextPID
	s.mu.Unlock()
	s.add(trace.Record{Op: trace.OpOpen, Count: 1, PID: pid})
	return &recordingFile{inner: f, store: s, pid: pid}, dur, nil
}

// Remove passes through and forgets the file.
func (s *RecordingStore) Remove(name string) (time.Duration, error) {
	dur, err := s.inner.Remove(name)
	if err == nil {
		s.mu.Lock()
		delete(s.files, name)
		s.mu.Unlock()
	}
	return dur, err
}

// Stat passes through unrecorded: the UMDT trace format has no stat
// operation (§3.2), so metadata probes stay invisible to replay.
func (s *RecordingStore) Stat(name string) (int64, time.Duration, error) {
	return s.inner.Stat(name)
}

// Exists passes through.
func (s *RecordingStore) Exists(name string) bool { return s.inner.Exists(name) }

// Names passes through.
func (s *RecordingStore) Names() []string { return s.inner.Names() }

// Trace snapshots the captured operations as a valid trace.
func (s *RecordingStore) Trace() *trace.Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := make([]trace.Record, len(s.records))
	copy(recs, s.records)
	sample := s.sample
	if sample == "" {
		sample = "unknown"
	}
	nproc := s.nextPID
	if nproc == 0 {
		nproc = 1
	}
	return &trace.Trace{
		Header: trace.Header{
			NumProcesses: nproc,
			NumFiles:     uint32(len(s.files)),
			NumRecords:   uint32(len(recs)),
			SampleFile:   sample,
		},
		Records: recs,
	}
}

// SetNextPID labels subsequently opened handles with pid — callers that
// model multiple processes bump it per worker.
func (s *RecordingStore) SetNextPID(pid uint32) {
	s.mu.Lock()
	s.nextPID = pid
	s.mu.Unlock()
}

// recordingFile wraps a handle, tracking the position so reads and
// writes record their offsets.
type recordingFile struct {
	inner fsim.File
	store *RecordingStore
	pid   uint32
	pos   int64
}

var _ fsim.File = (*recordingFile)(nil)

func (f *recordingFile) Read(p []byte) (int, time.Duration, error) {
	n, dur, err := f.inner.Read(p)
	f.recordRead(int64(n))
	return n, dur, err
}

func (f *recordingFile) Discard(n int64) (int64, time.Duration, error) {
	n, dur, err := f.inner.Discard(n)
	f.recordRead(n)
	return n, dur, err
}

// recordRead records a read of n bytes at the tracked position.
func (f *recordingFile) recordRead(n int64) {
	if n > 0 {
		f.store.add(trace.Record{
			Op: trace.OpRead, Count: 1, PID: f.pid,
			Offset: f.pos, Length: n,
		})
		f.pos += n
	}
}

func (f *recordingFile) Write(p []byte) (int, time.Duration, error) {
	n, dur, err := f.inner.Write(p)
	if n > 0 {
		f.store.add(trace.Record{
			Op: trace.OpWrite, Count: 1, PID: f.pid,
			Offset: f.pos, Length: int64(n),
		})
		f.pos += int64(n)
	}
	return n, dur, err
}

func (f *recordingFile) SeekTo(offset int64, whence int) (int64, time.Duration, error) {
	pos, dur, err := f.inner.SeekTo(offset, whence)
	if err == nil {
		f.store.add(trace.Record{
			Op: trace.OpSeek, Count: 1, PID: f.pid, Offset: pos,
		})
		f.pos = pos
	}
	return pos, dur, err
}

func (f *recordingFile) Close() (time.Duration, error) {
	dur, err := f.inner.Close()
	if err == nil {
		f.store.add(trace.Record{Op: trace.OpClose, Count: 1, PID: f.pid})
	}
	return dur, err
}

func (f *recordingFile) Size() int64  { return f.inner.Size() }
func (f *recordingFile) Name() string { return f.inner.Name() }
