package fsim

import (
	"fmt"
	"io"
	"io/fs"
	"time"

	"repro/internal/buffercache"
	"repro/internal/clock"
	"repro/internal/simdisk"
	"repro/internal/simdisk/sharedq"
)

// Session is an independent virtual timeline over a shared FileStore:
// its own clock lane, its own disk-timing view, and its own sequential
// read-ahead detection, over the store's shared namespace, page cache,
// and file contents. One session per concurrent worker is what makes a
// wall-parallel replay simulated-parallel — each worker's operations
// are timed as its own I/O stream against its own view of the device,
// and the aggregate elapsed time is the longest lane (Timeline.MaxNow),
// not the sum of every worker's latencies.
//
// A Session implements Store, so anything that serves files from a
// store (the web server, the VM stream wrappers) can run per-worker
// lanes by handing each worker a session. Like a File, a single Session
// must not be shared across goroutines; sessions of the same store may
// run fully in parallel.
type Session struct {
	store *FileStore
	clk   *clock.VirtualClock
	io    *buffercache.IO
	array *simdisk.Array // private timing view (the shared array for the default session; nil in shared-queue mode)
	lane  *sharedq.Lane  // shared-queue port (nil in private mode)

	// Fault-injection state (recovery.go): the session's schedule key,
	// its operation counter, the remaining fault budget (-1 unlimited),
	// and its recovery tally. injectable is false for the default session
	// — setup traffic never injects — and when injection is disabled.
	id         int64
	opSeq      uint64
	budget     int64
	injectable bool
	rec        recCounters
}

var (
	_ Store = (*FileStore)(nil)
	_ Store = (*Session)(nil)
)

// NewSession opens a new lane on the store: a fresh virtual clock
// starting at the timeline's current merged time and a private disk
// view with the store's geometry. The view is private for timing only —
// every byte still moves through the shared cache and namespace.
func (s *FileStore) NewSession() *Session {
	clk := s.tl.NewLane()
	var sess *Session
	if s.queue != nil {
		// Shared-queue mode: the session's disk port is a lane into the
		// one contended queue instead of a private array. The lane is a
		// simdisk.Port with the cache's AsyncBackend capability.
		lane := s.queue.NewLane(clk.Now())
		sess = &Session{store: s, clk: clk, io: s.cache.NewIO(lane), lane: lane}
	} else {
		// The configuration was validated when the store was built, so the
		// private view cannot fail to construct.
		array, err := simdisk.NewArrayLevel(s.cfg.Disks, s.cfg.StripeUnit, s.cfg.RAIDLevel, s.cfg.Disk)
		if err != nil {
			panic(fmt.Sprintf("fsim: session array from validated config: %v", err))
		}
		// The private view degrades under the same device-fault plan as
		// every other view; the configuration was validated, so applying
		// the plan cannot fail either.
		if err := array.ApplyFaultPlan(s.tl.Start(), s.cfg.Faults); err != nil {
			panic(fmt.Sprintf("fsim: session fault plan from validated config: %v", err))
		}
		sess = &Session{store: s, clk: clk, io: s.cache.NewIO(array), array: array}
	}
	sess.id = s.sessSeq.Add(1)
	sess.injectable = s.injEnabled
	sess.budget = -1 // unlimited
	if s.cfg.Inject.Budget > 0 {
		sess.budget = s.cfg.Inject.Budget
	}
	s.sessMu.Lock()
	s.sessions = append(s.sessions, sess)
	s.sessMu.Unlock()
	return sess
}

// Release retires the session: its lane's final time folds into the
// timeline floor (aggregate elapsed time is preserved) and its disk
// view's statistics fold into the store's retired totals, so servers
// that open a session per connection do not accumulate dead lanes and
// arrays. The session must not be used afterwards. Releasing the
// store's default session is a no-op.
func (sess *Session) Release() {
	s := sess.store
	if sess == s.def {
		return
	}
	s.sessMu.Lock()
	for i, other := range s.sessions {
		if other == sess {
			s.sessions = append(s.sessions[:i], s.sessions[i+1:]...)
			if sess.array != nil {
				s.retired.Add(sess.array.TotalStats())
			}
			s.retiredRec.Add(sess.rec.snapshot())
			break
		}
	}
	s.sessMu.Unlock()
	if sess.lane != nil {
		// Shared-queue mode: unregister from the event merge. The lane's
		// billed traffic already lives on the store's contended array.
		sess.lane.Release()
	}
	s.tl.ReleaseLane(sess.clk)
}

// advance tells the shared disk queue this session will submit nothing
// timestamped before now — the lookahead promise the event merge's
// conservative dispatch needs. Sessions call it at the start of every
// operation; in private mode it is a no-op.
func (sess *Session) advance(now time.Time) {
	if sess.lane != nil {
		sess.lane.Advance(now)
	}
}

// Idle parks the session's shared-queue lane: the session promises not
// to touch the store again until its next operation (which unparks it).
// Callers that block outside simulated time — a replay worker out of
// records, a server connection waiting for the next request — must call
// it, or the contended queue conservatively waits for them. A no-op in
// private mode.
func (sess *Session) Idle() {
	if sess.lane != nil {
		sess.lane.Park()
	}
}

// SetWait passes wait to the session's shared-queue lane (see
// sharedq.Lane.SetWait): a driver stepping every session on one
// goroutine gets control back when a disk request must wait for other
// sessions. A no-op in private mode, where nothing waits.
func (sess *Session) SetWait(wait func(served func() bool)) {
	if sess.lane != nil {
		sess.lane.SetWait(wait)
	}
}

// Clock exposes the session's lane.
func (sess *Session) Clock() *clock.VirtualClock { return sess.clk }

// Elapsed is the simulated time this lane has consumed since it opened.
func (sess *Session) Elapsed() time.Duration { return sess.clk.Now().Sub(sess.store.tl.Start()) }

// Create makes (or truncates) a file holding data, timed on this lane.
// Existing extents are reused when the new contents fit; otherwise a
// fresh extent is allocated.
func (sess *Session) Create(name string, data []byte) (time.Duration, error) {
	s := sess.store
	start := sess.clk.Now()
	sess.advance(start)
	now, ferr := sess.opStart(start, OpCreate)
	if ferr != nil {
		return now.Sub(start), ferr
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	meta, ok := s.lookup(name)
	if ok {
		meta.mu.Lock()
		// Re-check under the file lock: a concurrent Remove may have
		// unlinked this meta after the lookup, in which case mutating it
		// would be lost — fall through and insert a fresh entry instead
		// (Create linearizes after the Remove).
		cur, live := s.lookup(name)
		if live && cur == meta && int64(len(data)) <= s.extentCap(meta) {
			meta.data = buf
			meta.sparse = false
			meta.size = int64(len(buf))
			meta.mu.Unlock()
		} else {
			meta.mu.Unlock()
			ok = false
		}
	}
	if !ok {
		meta = &fileMeta{name: name, base: s.allocExtent(int64(len(data)))}
		meta.data = buf
		meta.size = int64(len(buf))
		s.files.Store(name, meta)
	}
	done := now.Add(s.cfg.CreateCost)
	// Writing the initial contents dirties the cache like any write.
	if len(data) > 0 {
		done, _ = s.cache.WriteIO(sess.io, done, meta.base, int64(len(data)))
	}
	sess.clk.Set(done)
	return done.Sub(start), nil
}

// CreateSized makes (or replaces) a sparse file of the given logical
// size, timed on this lane.
func (sess *Session) CreateSized(name string, size int64) (time.Duration, error) {
	if size < 0 {
		return 0, &fs.PathError{Op: "create", Path: name, Err: fmt.Errorf("fsim: negative size %d", size)}
	}
	s := sess.store
	start := sess.clk.Now()
	sess.advance(start)
	now, ferr := sess.opStart(start, OpCreate)
	if ferr != nil {
		return now.Sub(start), ferr
	}
	meta := &fileMeta{name: name, base: s.allocExtent(size), sparse: true, size: size}
	s.files.Store(name, meta)
	done := now.Add(s.cfg.CreateCost)
	sess.clk.Set(done)
	return done.Sub(start), nil
}

// Open opens an existing file on this lane.
func (sess *Session) Open(name string) (File, time.Duration, error) {
	s := sess.store
	meta, ok := s.lookup(name)
	if !ok {
		return nil, 0, &fs.PathError{Op: "open", Path: name, Err: ErrNotExist}
	}
	start := sess.clk.Now()
	sess.advance(start)
	now, ferr := sess.opStart(start, OpOpen)
	if ferr != nil {
		return nil, now.Sub(start), ferr
	}
	done := now.Add(s.cfg.OpenCost)
	sess.clk.Set(done)
	// Background warm-up of the first pages (§3.4): occupies the cache and
	// disk but is not charged to the caller.
	if s.cfg.WarmPagesOnOpen > 0 {
		if length := meta.length(); length > 0 {
			warm := int64(s.cfg.WarmPagesOnOpen) * s.cfg.Cache.PageSize
			if warm > length {
				warm = length
			}
			s.cache.ReadIO(sess.io, done, meta.base, warm)
		}
	}
	return &simFile{store: s, sess: sess, meta: meta}, done.Sub(start), nil
}

// Remove deletes name on this lane, dropping its directory entry.
func (sess *Session) Remove(name string) (time.Duration, error) {
	s := sess.store
	if !s.Exists(name) {
		return 0, &fs.PathError{Op: "remove", Path: name, Err: ErrNotExist}
	}
	start := sess.clk.Now()
	sess.advance(start)
	// The fault gate runs before the namespace mutates: a failed remove
	// leaves the file in place, as a failed directory update would.
	now, ferr := sess.opStart(start, OpRemove)
	if ferr != nil {
		return now.Sub(start), ferr
	}
	if _, ok := s.files.LoadAndDelete(name); !ok {
		return 0, &fs.PathError{Op: "remove", Path: name, Err: ErrNotExist}
	}
	// Dropping the directory entry costs like a create; the extent's
	// cached pages become dead weight the LRU will reclaim naturally.
	done := now.Add(s.cfg.CreateCost)
	sess.clk.Set(done)
	return done.Sub(start), nil
}

// Stat reports name's logical size, billed on this lane like an Open —
// the same directory probe, without the handle or the background
// warm-up.
func (sess *Session) Stat(name string) (int64, time.Duration, error) {
	s := sess.store
	meta, ok := s.lookup(name)
	if !ok {
		return 0, 0, &fs.PathError{Op: "stat", Path: name, Err: ErrNotExist}
	}
	start := sess.clk.Now()
	sess.advance(start)
	now, ferr := sess.opStart(start, OpStat)
	if ferr != nil {
		return 0, now.Sub(start), ferr
	}
	done := now.Add(s.cfg.OpenCost)
	sess.clk.Set(done)
	return meta.length(), done.Sub(start), nil
}

// Exists reports whether name exists (untimed, like a stat cache hit).
func (sess *Session) Exists(name string) bool { return sess.store.Exists(name) }

// Names returns the sorted file names (untimed).
func (sess *Session) Names() []string { return sess.store.Names() }

// simFile is an open handle on a FileStore file, bound to the session
// (lane) that opened it.
type simFile struct {
	store  *FileStore
	sess   *Session
	meta   *fileMeta
	pos    int64
	closed bool
	wrote  bool
}

var _ File = (*simFile)(nil)

// Name returns the file name.
func (f *simFile) Name() string { return f.meta.name }

// Size returns the file length.
func (f *simFile) Size() int64 { return f.meta.length() }

// Read fills p from the current position, advancing it.
func (f *simFile) Read(p []byte) (int, time.Duration, error) {
	n, d, err := f.read(p, int64(len(p)))
	return int(n), d, err
}

// Discard advances up to n bytes exactly as Read of an n-byte buffer
// would, but moves no bytes.
func (f *simFile) Discard(n int64) (int64, time.Duration, error) {
	if n < 0 {
		return 0, 0, errNegativeDiscard
	}
	return f.read(nil, n)
}

// read is the one read path: it advances up to want bytes from the
// current position, billing them through the fault gate and the cache,
// and fills p with them unless p is nil (a Discard). The lock section is
// kept minimal and defer-free: this is the replay hot path, and the
// cache and clock below are internally synchronized.
func (f *simFile) read(p []byte, want int64) (int64, time.Duration, error) {
	if f.closed {
		return 0, 0, ErrClosed
	}
	m := f.meta
	m.mu.RLock()
	size := m.lengthLocked()
	if f.pos >= size {
		m.mu.RUnlock()
		return 0, 0, io.EOF
	}
	n := min(want, size-f.pos)
	sparse := m.sparse
	if p != nil && !sparse {
		copy(p, m.data[f.pos:f.pos+n])
	}
	m.mu.RUnlock()
	if p != nil && sparse {
		clear(p[:n])
	}
	start := f.sess.clk.Now()
	f.sess.advance(start)
	now, ferr := f.sess.opStart(start, OpRead)
	if ferr != nil {
		return 0, now.Sub(start), ferr
	}
	done, _ := f.store.cache.ReadIO(f.sess.io, now, m.base+f.pos, n)
	f.sess.clk.Set(done)
	f.pos += n
	var err error
	if n < want {
		err = io.EOF
	}
	return n, done.Sub(start), err
}

// Write stores p at the current position, growing the file as needed.
func (f *simFile) Write(p []byte) (int, time.Duration, error) {
	if f.closed {
		return 0, 0, ErrClosed
	}
	s := f.store
	m := f.meta
	start := f.sess.clk.Now()
	f.sess.advance(start)
	// The fault gate runs before the contents mutate: a failed write
	// leaves the file untouched.
	now, ferr := f.sess.opStart(start, OpWrite)
	if ferr != nil {
		return 0, now.Sub(start), ferr
	}
	end := f.pos + int64(len(p))
	m.mu.Lock()
	if end > s.extentCap(m) {
		// Contents outgrew the extent: relocate. Rare in the benchmarks
		// (POST files are written once); charged as a create. The bytes
		// are copied, not aliased: stale handles on the old meta keep
		// writing their own backing array under their own lock.
		newMeta := &fileMeta{name: m.name, base: s.allocExtent(end)}
		newMeta.data = append([]byte(nil), m.data...)
		newMeta.sparse = m.sparse
		newMeta.size = m.size
		m.mu.Unlock()
		s.files.Store(m.name, newMeta)
		m = newMeta
		f.meta = newMeta
		m.mu.Lock()
	}
	if m.sparse {
		if end > m.size {
			m.size = end
		}
	} else {
		if end > int64(len(m.data)) {
			grown := make([]byte, end)
			copy(grown, m.data)
			m.data = grown
		}
		copy(m.data[f.pos:end], p)
		m.size = int64(len(m.data))
	}
	m.mu.Unlock()
	done, _ := s.cache.WriteIO(f.sess.io, now, m.base+f.pos, int64(len(p)))
	f.sess.clk.Set(done)
	f.pos = end
	f.wrote = true
	return len(p), done.Sub(start), nil
}

// SeekTo repositions the handle. Seeking to a non-resident page charges
// the read-ahead initiation cost and warms the target page in the
// background. Defer-free like Read: seeks dominate several traces.
func (f *simFile) SeekTo(offset int64, whence int) (int64, time.Duration, error) {
	if f.closed {
		return 0, 0, ErrClosed
	}
	start := f.sess.clk.Now()
	f.sess.advance(start)
	length := f.meta.length()
	var target int64
	switch whence {
	case io.SeekStart:
		target = offset
	case io.SeekCurrent:
		target = f.pos + offset
	case io.SeekEnd:
		target = length + offset
	default:
		return f.pos, 0, &fs.PathError{Op: "seek", Path: f.meta.name, Err: fmt.Errorf("fsim: invalid whence %d", whence)}
	}
	if target < 0 {
		return f.pos, 0, &fs.PathError{Op: "seek", Path: f.meta.name, Err: fmt.Errorf("fsim: negative seek position %d", target)}
	}
	now, ferr := f.sess.opStart(start, OpSeek)
	if ferr != nil {
		return f.pos, now.Sub(start), ferr
	}
	cost := f.store.cfg.SeekCost
	if target < length && !f.store.cache.Resident(f.meta.base+target) {
		cost += f.store.cfg.SeekPrefetchInit
		// Kick off background read-ahead at the target; not charged.
		f.store.cache.ReadIO(f.sess.io, now, f.meta.base+target, f.store.cfg.Cache.PageSize)
	}
	done := now.Add(cost)
	f.sess.clk.Set(done)
	f.pos = target
	return target, done.Sub(start), nil
}

// Close releases the handle. Without background write-back it flushes
// the file's dirty pages on the caller's lane — closing is then always
// at least CloseCost, and more when writes must be written back, the
// close-slower-than-open effect of §3.4. With write-back enabled the
// dirty pages are handed to background write-back instead (an async
// close): the caller pays only CloseCost and the flush time lands on
// the write-back lanes.
func (f *simFile) Close() (time.Duration, error) {
	if f.closed {
		return 0, ErrClosed
	}
	f.closed = true
	now := f.sess.clk.Now()
	f.sess.advance(now)
	done := now.Add(f.store.cfg.CloseCost)
	if f.wrote {
		if f.store.cache.WritebackEnabled() {
			f.store.cache.SignalWriteback(done)
		} else {
			done, _ = f.store.cache.FlushRangeIO(f.sess.io, done, f.meta.base, f.meta.length())
		}
	}
	f.sess.clk.Set(done)
	return done.Sub(now), nil
}
