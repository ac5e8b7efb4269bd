// Package fsim provides the file-store substrate the benchmarks issue
// their I/O against. Two implementations share one interface:
//
//   - FileStore: a simulated filesystem over buffercache + simdisk. File
//     contents are real bytes held in memory (so benchmarks that round-trip
//     data, like the web server, behave correctly) while every operation's
//     latency is simulated deterministically.
//   - OSStore (os.go): a passthrough to the host filesystem timed with the
//     real clock, for runs that want genuine OS I/O.
//
// The operation set matches the paper's trace format exactly: Open, Close,
// Read, Write, Seek (§3.2).
//
// Time model: a FileStore owns a clock.Timeline. Plain store calls run on
// the default lane — single-threaded callers see exactly the original
// one-clock behavior. NewSession (session.go) opens an independent lane
// with a private disk-timing view, so concurrent workers advance
// simulated time in parallel and the aggregate elapsed time is the
// longest lane, not the sum.
//
// Disk billing is run-granular: every disk view here is a simdisk.Port
// (a *simdisk.Array, or a shared-queue lane over one), so the cache's
// cold paths — eviction write-backs and the flush-on-close sweep
// (FlushRange) — submit contiguous page spans as single AccessRun calls
// rather than one Access per page, and whole-cache flushes (Settle's
// final Flush) as one scheduled batch. The simulated completion times
// are bit-identical to the per-page sequence; only the engine's wall
// cost differs.
package fsim

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffercache"
	"repro/internal/clock"
	"repro/internal/simdisk"
	"repro/internal/simdisk/sharedq"
)

// Store is a file system that reports a simulated-or-real duration for
// every operation, mirroring how the paper times each I/O call.
type Store interface {
	// Create makes (or truncates) a file filled with len(data) bytes.
	Create(name string, data []byte) (time.Duration, error)
	// Open opens an existing file for reading and writing.
	Open(name string) (File, time.Duration, error)
	// Remove deletes a file. Removing a missing file is an error.
	Remove(name string) (time.Duration, error)
	// Stat reports the file's logical size without opening a handle,
	// billed as a metadata lookup (the stdfs facade's fs.StatFS and
	// fs.DirEntry.Info run on it).
	Stat(name string) (int64, time.Duration, error)
	// Exists reports whether the file exists.
	Exists(name string) bool
	// Names returns the sorted names of all files.
	Names() []string
}

// File is an open file handle. Operations report their duration alongside
// the usual results. Implementations are safe for concurrent use of
// distinct files; a single File must not be shared across goroutines.
type File interface {
	// Read fills p from the current position, advancing it.
	Read(p []byte) (int, time.Duration, error)
	// Discard advances the position exactly as Read of an n-byte
	// buffer would, with the same cost, faults and io.EOF, but copies
	// no bytes, like bufio.Reader.Discard. Trace replay reads through
	// it: it bills every read and throws the contents away.
	Discard(n int64) (int64, time.Duration, error)
	// Write stores p at the current position, advancing it and growing
	// the file as needed.
	Write(p []byte) (int, time.Duration, error)
	// Seek repositions like io.Seeker.
	SeekTo(offset int64, whence int) (int64, time.Duration, error)
	// Close releases the handle, flushing buffered state.
	Close() (time.Duration, error)
	// Size returns the current file length in bytes.
	Size() int64
	// Name returns the file's name.
	Name() string
}

// Common errors. Both wrap the standard library's filesystem sentinels,
// so errors.Is(err, fs.ErrNotExist) / errors.Is(err, fs.ErrClosed) hold
// for every error a store returns — stdlib-facing consumers (the stdfs
// facade, http.FileServer, fs.WalkDir) classify fsim failures without
// knowing about this package.
var (
	ErrNotExist = fmt.Errorf("fsim: %w", fs.ErrNotExist)
	ErrClosed   = fmt.Errorf("fsim: %w", fs.ErrClosed)
)

// errNegativeDiscard rejects a negative Discard count, as
// bufio.Reader.Discard does.
var errNegativeDiscard = errors.New("fsim: negative discard count")

// Config tunes the simulated store's software-path costs. The defaults
// are calibrated so that warm-cache replay latencies land in the
// microsecond range the paper's Tables 1-4 report.
type Config struct {
	// OpenCost is the metadata cost of opening a file.
	OpenCost time.Duration
	// CloseCost is the bookkeeping cost of closing, before any flush.
	// The paper observes close > open on every trace; this constant plus
	// dirty-page flushing is why.
	CloseCost time.Duration
	// CreateCost is the directory-entry cost of creating a file.
	CreateCost time.Duration
	// SeekCost is the in-memory cost of repositioning a handle.
	SeekCost time.Duration
	// SeekPrefetchInit is the extra cost charged when a seek lands on a
	// non-resident page and kicks off asynchronous read-ahead — the
	// occasional slow seeks of Table 3.
	SeekPrefetchInit time.Duration
	// WarmPagesOnOpen is how many leading pages Open pulls into the cache
	// in the background ("when the file is opened, a page or two is
	// placed in I/O buffers", §3.4). The pull is asynchronous: it occupies
	// the disk but is not charged to Open's latency.
	WarmPagesOnOpen int
	// Cache configures the page cache, including the background
	// write-back knobs (WritebackThreshold / WritebackPolicy).
	Cache buffercache.Config
	// Disk configures the backing store; see simdisk.MemoryBackedParams.
	Disk simdisk.Params
	// Disks is the number of striped disks (≥1).
	Disks int
	// StripeUnit is the array stripe unit in bytes.
	StripeUnit int64
	// RAIDLevel selects the array redundancy scheme (default RAID0).
	RAIDLevel simdisk.Level
	// DiskQueue selects private per-session disk-timing views (the
	// default, bit-identical to the original model) or one shared
	// contended queue across every session's lane; see DiskQueueMode.
	DiskQueue DiskQueueMode
	// Faults schedules device faults on every disk view the store builds
	// (the shared array, the contended queue's array, the write-back
	// view, and each session's private view), activating on virtual time
	// so faulted replays are bit-identical. Nil injects nothing.
	Faults *simdisk.FaultPlan
	// Inject schedules deterministic op-level fault injection on session
	// operations; see InjectSpec. The zero spec injects nothing.
	Inject InjectSpec
	// Retry bounds session recovery from transient injected faults with
	// simulated-time exponential backoff; see RetryPolicy.
	Retry RetryPolicy
	// Spares provisions a hot-spare pool that rebuilds draw from, so
	// multiple members can rebuild concurrently and a plan that kills
	// more members than it provisioned spares for fails loudly. Zero
	// keeps the ad-hoc per-rebuild spare.
	Spares int
}

// ShardedConfig is DefaultConfig with the page cache lock-striped for the
// machine (buffercache.AutoShards stripes): the configuration for
// concurrent replay and serving. Single-threaded paper-fidelity runs keep
// DefaultConfig, whose single stripe reproduces the original global-mutex
// cache exactly.
func ShardedConfig() Config {
	cfg := DefaultConfig()
	cfg.Cache.Shards = buffercache.AutoShards()
	return cfg
}

// DefaultConfig returns the trace-replay calibration: memory-backed
// storage, 4 KB pages, 64 MB cache, light software-path costs.
func DefaultConfig() Config {
	cacheCfg := buffercache.DefaultConfig()
	cacheCfg.NumPages = 16384 // 64 MB
	cacheCfg.MemCopyRate = 4 << 30
	cacheCfg.HitOverhead = 500 * time.Nanosecond
	// 256 KB of read-ahead: sequential scans stay warm (the cheap rows of
	// Tables 1-4) while random jumps fault in cold pages (the spikes).
	cacheCfg.PrefetchPages = 64
	return Config{
		OpenCost:         600 * time.Nanosecond,
		CloseCost:        5 * time.Microsecond,
		CreateCost:       2 * time.Microsecond,
		SeekCost:         35 * time.Nanosecond,
		SeekPrefetchInit: 120 * time.Nanosecond,
		WarmPagesOnOpen:  2,
		Cache:            cacheCfg,
		Disk:             simdisk.MemoryBackedParams(),
		Disks:            1,
		StripeUnit:       64 << 10,
	}
}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	switch {
	case c.OpenCost < 0 || c.CloseCost < 0 || c.CreateCost < 0 || c.SeekCost < 0 || c.SeekPrefetchInit < 0:
		return fmt.Errorf("fsim: operation costs must be non-negative")
	case c.WarmPagesOnOpen < 0:
		return fmt.Errorf("fsim: warm pages %d must be non-negative", c.WarmPagesOnOpen)
	case c.Disks < 1:
		return fmt.Errorf("fsim: need at least one disk, got %d", c.Disks)
	case c.StripeUnit <= 0:
		return fmt.Errorf("fsim: stripe unit %d must be positive", c.StripeUnit)
	case !c.DiskQueue.Valid():
		return fmt.Errorf("fsim: invalid disk-queue mode %d", int(c.DiskQueue))
	case c.Spares < 0:
		return fmt.Errorf("fsim: negative spare count %d", c.Spares)
	}
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(c.Disks, c.RAIDLevel); err != nil {
		return err
	}
	if err := c.Inject.Validate(); err != nil {
		return err
	}
	if err := c.Retry.Validate(); err != nil {
		return err
	}
	return c.Disk.Validate()
}

// fileMeta is the on-"disk" identity of a file: a contiguous extent in the
// simulated address space plus its in-memory contents. Sparse files track
// only a logical size — reads return zeros and writes update metadata —
// so the trace benchmarks can replay against a 1 GB sample file without
// materializing a gigabyte of bytes.
//
// Each file carries its own lock: the store-level namespace (a sync.Map)
// never serializes data access, so metadata-heavy workloads touching
// different files proceed in parallel.
type fileMeta struct {
	name string
	base int64 // extent start in the simulated address space; immutable

	mu     sync.RWMutex
	data   []byte
	sparse bool
	size   int64 // logical size; == len(data) for dense files
}

// lengthLocked returns the logical size; the caller holds mu.
func (m *fileMeta) lengthLocked() int64 {
	if m.sparse {
		return m.size
	}
	return int64(len(m.data))
}

// length returns the logical size under the meta lock.
func (m *fileMeta) length() int64 {
	m.mu.RLock()
	n := m.lengthLocked()
	m.mu.RUnlock()
	return n
}

// FileStore is the simulated Store. The namespace is a sync.Map keyed by
// file name, extent allocation is an atomic bump pointer, and each file
// guards its own contents with a read-write lock — there is no
// store-level mutex left, so directory operations (Create, Open, Remove,
// Names) from different goroutines never serialize on the store. The
// cache, disk array, and virtual clocks are internally synchronized.
type FileStore struct {
	cfg   Config
	tl    *clock.Timeline
	clk   *clock.VirtualClock // the default lane
	cache *buffercache.Cache
	array *simdisk.Array
	def   *Session
	// queue and qArray exist only in shared disk-queue mode: one
	// contended command queue over one array, which every session's lane
	// submits into instead of owning a private timing view.
	queue  *sharedq.Queue
	qArray *simdisk.Array
	// spares is the hot-spare pool rebuilds draw from; nil when
	// Config.Spares is zero (each rebuild then provisions ad hoc).
	spares *simdisk.SparePool

	files     sync.Map // name -> *fileMeta
	nextBase  atomic.Int64
	extentGap int64

	sessMu   sync.Mutex
	sessions []*Session
	// retired accumulates the disk statistics of released sessions.
	retired simdisk.Stats
	// retiredRec accumulates released sessions' recovery counters.
	retiredRec RecoveryStats
	// sessSeq numbers sessions (the injection schedule's session key).
	sessSeq atomic.Int64
	// injEnabled caches Inject.Enabled(): the per-op gate's one branch.
	injEnabled bool
}

// NewFileStore builds a simulated store. It returns an error for invalid
// configuration.
func NewFileStore(cfg Config) (*FileStore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	array, err := simdisk.NewArrayLevel(cfg.Disks, cfg.StripeUnit, cfg.RAIDLevel, cfg.Disk)
	if err != nil {
		return nil, err
	}
	cache, err := buffercache.New(cfg.Cache, array)
	if err != nil {
		return nil, err
	}
	tl := clock.NewTimeline(time.Unix(0, 0))
	s := &FileStore{
		cfg:        cfg,
		tl:         tl,
		clk:        tl.NewLane(),
		cache:      cache,
		array:      array,
		extentGap:  cfg.Cache.PageSize, // extents are page-aligned and disjoint
		injEnabled: cfg.Inject.Enabled(),
	}
	// Device faults activate on virtual offsets from the timeline start,
	// so every disk view the store builds degrades identically.
	if err := array.ApplyFaultPlan(tl.Start(), cfg.Faults); err != nil {
		return nil, err
	}
	if cfg.Spares > 0 {
		pool, err := simdisk.NewSparePool(cfg.Spares, cfg.Disk)
		if err != nil {
			return nil, err
		}
		s.spares = pool
	}
	// The default session runs on the default lane, the shared array, and
	// the cache's default I/O context: plain store calls behave exactly
	// like the pre-session store. It never injects op-level faults —
	// provisioning and setup traffic stays clean; see NewSession.
	s.def = &Session{store: s, clk: s.clk, io: cache.DefaultIO(), array: array}
	// Shared disk-queue mode: sessions' requests meet in one contended
	// queue over one array, ordered by the configured scheduling policy.
	// The default session (setup traffic, single-threaded callers) stays
	// on its unregistered view, so it never gates the event merge.
	if cfg.DiskQueue == DiskQueueShared {
		qArray, err := simdisk.NewArrayLevel(cfg.Disks, cfg.StripeUnit, cfg.RAIDLevel, cfg.Disk)
		if err != nil {
			return nil, err
		}
		if err := qArray.ApplyFaultPlan(tl.Start(), cfg.Faults); err != nil {
			return nil, err
		}
		s.qArray = qArray
		s.queue = sharedq.MustNew(qArray, cfg.Cache.WritebackPolicy)
	}
	// Background write-back gets its own disk view, like a session: its
	// drains overlap foreground I/O on independent lanes instead of
	// racing wall-clock-nondeterministically for the shared busy horizon.
	if cfg.Cache.WritebackThreshold > 0 {
		wbArray, err := simdisk.NewArrayLevel(cfg.Disks, cfg.StripeUnit, cfg.RAIDLevel, cfg.Disk)
		if err != nil {
			return nil, err
		}
		if err := wbArray.ApplyFaultPlan(tl.Start(), cfg.Faults); err != nil {
			return nil, err
		}
		cache.SetWritebackBackend(wbArray)
	}
	return s, nil
}

// MustNewFileStore panics on configuration error; for literal wiring.
func MustNewFileStore(cfg Config) *FileStore {
	s, err := NewFileStore(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the store configuration.
func (s *FileStore) Config() Config { return s.cfg }

// Cache exposes the page cache for stats inspection and ablations.
func (s *FileStore) Cache() *buffercache.Cache { return s.cache }

// Array exposes the shared disk array for stats inspection. Sessions
// time their I/O against private views; TotalDiskStats aggregates both.
func (s *FileStore) Array() *simdisk.Array { return s.array }

// SharedQueue exposes the shared disk queue, or nil when the store runs
// private per-session views (the default). Benchmarks read its Stats for
// the contention rows.
func (s *FileStore) SharedQueue() *sharedq.Queue { return s.queue }

// Clock exposes the store's default virtual-clock lane.
func (s *FileStore) Clock() *clock.VirtualClock { return s.clk }

// Timeline exposes the store's lane set; its MaxNow is the aggregate
// simulated time across the default lane and every session.
func (s *FileStore) Timeline() *clock.Timeline { return s.tl }

// Close releases the store. Write-back drains inline on the simulated
// operations, so a store runs no background work and Close has nothing
// left to stop; it stays so callers can release stores uniformly.
func (s *FileStore) Close() {}

// Settle ends a (possibly parallel) run: it merges every lane, then
// retires whatever dirty pages remain. With background write-back the
// residue drains through the write-back lanes — the disk work happens
// off the critical path, so no foreground time is charged and the settle
// duration is zero; the horizon is visible via Cache().WritebackHorizon.
// Without write-back the residue is flushed as one deterministic
// elevator sweep billed from the merged time, as a final sync would be.
// It returns the merged completion time and the foreground duration
// charged.
func (s *FileStore) Settle() (time.Time, time.Duration) {
	now := s.tl.MaxNow()
	if s.cache.WritebackEnabled() {
		s.cache.Quiesce(now)
		return now, 0
	}
	done, d := s.cache.Flush(now)
	s.clk.Set(done)
	return done, d
}

// TotalDiskStats sums the shared array's statistics with every live
// session's private view and the retired totals of released sessions,
// so no simulated disk traffic is invisible.
func (s *FileStore) TotalDiskStats() simdisk.Stats {
	total := s.array.TotalStats()
	if s.qArray != nil {
		// Shared-queue sessions all bill the one contended array.
		total.Add(s.qArray.TotalStats())
	}
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	total.Add(s.retired)
	for _, sess := range s.sessions {
		if sess.array == nil || sess.array == s.array {
			continue
		}
		total.Add(sess.array.TotalStats())
	}
	return total
}

// alignUp rounds n up to the next multiple of align.
func alignUp(n, align int64) int64 {
	if n%align == 0 {
		return n
	}
	return n + align - n%align
}

// allocExtent reserves a page-aligned extent for length bytes and
// returns its base. The bump pointer is atomic, so concurrent creates
// never serialize on the store.
func (s *FileStore) allocExtent(length int64) int64 {
	span := alignUp(length+s.extentGap, s.cfg.Cache.PageSize)
	return s.nextBase.Add(span) - span
}

// lookup fetches a file's metadata.
func (s *FileStore) lookup(name string) (*fileMeta, bool) {
	v, ok := s.files.Load(name)
	if !ok {
		return nil, false
	}
	return v.(*fileMeta), true
}

// extentCap returns the capacity of meta's extent (distance to next base,
// conservatively its own aligned size). The caller holds meta.mu.
func (s *FileStore) extentCap(meta *fileMeta) int64 {
	return alignUp(meta.lengthLocked()+s.extentGap, s.cfg.Cache.PageSize)
}

// Create makes (or truncates) a file holding data on the default lane.
func (s *FileStore) Create(name string, data []byte) (time.Duration, error) {
	return s.def.Create(name, data)
}

// CreateSized makes (or replaces) a sparse file of the given logical size.
// Reads return zeros; writes update only metadata and timing. This is how
// the trace benchmarks provision the paper's 1 GB sample file.
func (s *FileStore) CreateSized(name string, size int64) (time.Duration, error) {
	return s.def.CreateSized(name, size)
}

// Open opens an existing file on the default lane.
func (s *FileStore) Open(name string) (File, time.Duration, error) {
	return s.def.Open(name)
}

// Remove deletes name on the default lane, dropping its directory entry.
func (s *FileStore) Remove(name string) (time.Duration, error) {
	return s.def.Remove(name)
}

// Stat reports name's logical size on the default lane.
func (s *FileStore) Stat(name string) (int64, time.Duration, error) {
	return s.def.Stat(name)
}

// Exists reports whether name exists.
func (s *FileStore) Exists(name string) bool {
	_, ok := s.files.Load(name)
	return ok
}

// Names returns the sorted file names.
func (s *FileStore) Names() []string {
	var out []string
	s.files.Range(func(key, _ any) bool {
		out = append(out, key.(string))
		return true
	})
	sort.Strings(out)
	return out
}
