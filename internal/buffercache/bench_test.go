package buffercache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/simdisk"
)

func benchCache(b *testing.B, cfg Config) *Cache {
	b.Helper()
	p := simdisk.DefaultParams()
	disk := simdisk.MustNew(p)
	return MustNew(cfg, disk)
}

func BenchmarkCacheHit(b *testing.B) {
	c := benchCache(b, DefaultConfig())
	now := time.Unix(0, 0)
	c.Read(now, 0, 4096) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(now, 0, 4096)
	}
}

func BenchmarkCacheMissEvict(b *testing.B) {
	cfg := DefaultConfig()
	cfg.NumPages = 64
	cfg.PrefetchPages = 0
	c := benchCache(b, cfg)
	now := time.Unix(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(now, int64(i)*4096%(1<<30), 4096)
	}
}

func BenchmarkCacheSequentialScanPrefetch(b *testing.B) {
	cfg := DefaultConfig()
	cfg.PrefetchPages = 64
	c := benchCache(b, cfg)
	now := time.Unix(0, 0)
	var off int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(now, off, 64<<10)
		off = (off + 64<<10) % (1 << 30)
	}
}

func BenchmarkCacheWriteBehind(b *testing.B) {
	c := benchCache(b, DefaultConfig())
	now := time.Unix(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Write(now, int64(i)*4096%(1<<26), 4096)
	}
}

// benchParallelCache drives the cache from `workers` goroutines at once,
// each walking its own warm stripe of pages, with one write mixed in per
// writeEvery reads (0 = reads only). b.N is the aggregate operation
// count, so ns/op is directly comparable across shard counts: the
// single-mutex baseline is shards=1.
func benchParallelCache(b *testing.B, shards, workers, writeEvery int) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Shards = shards
	c := benchCache(b, cfg)
	now := time.Unix(0, 0)
	// Leave the read-ahead window's worth of headroom: warming the full
	// budget would let the final prefetch evict warm pages and seed
	// permanent misses into the measured loop.
	usable := cfg.NumPages - cfg.PrefetchPages
	for p := int64(0); p < int64(usable); p++ {
		c.Read(now, p*cfg.PageSize, cfg.PageSize)
	}
	stride := usable / workers
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * stride)
			for i := 0; i < b.N/workers; i++ {
				off := (base + int64(i%stride)) * cfg.PageSize
				if writeEvery > 0 && i%writeEvery == 0 {
					c.Write(now, off, cfg.PageSize)
				} else {
					c.Read(now, off, cfg.PageSize)
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkCacheShardScalingReadHit is the lock-striping headline: warm
// read hits from 8 concurrent workers as the shard count sweeps 1→16.
func BenchmarkCacheShardScalingReadHit(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d/workers=8", shards), func(b *testing.B) {
			benchParallelCache(b, shards, 8, 0)
		})
	}
}

// BenchmarkCacheShardScalingMixed is the same sweep with one write-behind
// write per four operations, exercising the dirty-set accounting under
// contention.
func BenchmarkCacheShardScalingMixed(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d/workers=8", shards), func(b *testing.B) {
			benchParallelCache(b, shards, 8, 4)
		})
	}
}

var residentSink bool

// BenchmarkCacheShardedLookup probes every page of an 8-stripe cache
// that holds 3/4 of its budget, resident and absent alike: the
// page-table lookup on its own. Home slots that aliased the stripe hash
// would make each probe walk one long cluster per shard.
func BenchmarkCacheShardedLookup(b *testing.B) {
	cfg := DefaultConfig()
	cfg.NumPages = 16384
	cfg.Shards = 8
	c := benchCache(b, cfg)
	c.Read(time.Unix(0, 0), 0, int64(cfg.NumPages*3/4)*cfg.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		residentSink = c.Resident(int64(i%cfg.NumPages) * cfg.PageSize)
	}
}
