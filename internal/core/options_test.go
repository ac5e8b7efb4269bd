package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/buffercache"
	"repro/internal/fsim"
	"repro/internal/simdisk"
)

func TestDefaultOptionsValid(t *testing.T) {
	t.Parallel()
	opts := DefaultOptions()
	if err := opts.Machine.Validate(); err != nil {
		t.Fatal(err)
	}
	if opts.Base <= 0 {
		t.Fatal("zero base")
	}
	if err := opts.TraceParams.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFillDefaults(t *testing.T) {
	t.Parallel()
	var zero Options
	filled := zero.fillDefaults()
	if filled.Machine.NumCPUs == 0 || filled.Base == 0 || filled.TraceParams.FileSize == 0 {
		t.Fatalf("fillDefaults left zeros: %+v", filled)
	}
}

func TestLoadOptionsOverlays(t *testing.T) {
	t.Parallel()
	cfg := `{"cpus": 8, "disks": 4, "base_seconds": 10, "trace_file_size_mb": 64, "trace_requests": 50}`
	opts, err := LoadOptions(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if opts.Machine.NumCPUs != 8 || opts.Machine.NumDisks != 4 {
		t.Fatalf("machine = %+v", opts.Machine)
	}
	if opts.Base != 10*time.Second {
		t.Fatalf("base = %v", opts.Base)
	}
	if opts.TraceParams.FileSize != 64<<20 || opts.TraceParams.Requests != 50 {
		t.Fatalf("trace params = %+v", opts.TraceParams)
	}
	// Untouched fields keep defaults.
	if opts.Machine.CPUParFrac != DefaultOptions().Machine.CPUParFrac {
		t.Fatal("unset field changed")
	}
}

func TestLoadOptionsRejects(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		cfg  string
	}{
		{"unknown key", `{"cpuz": 8}`},
		{"invalid machine", `{"cpus": 0}`},
		{"negative base", `{"base_seconds": -1}`},
		{"bad json", `{`},
		{"bad trace", `{"trace_requests": -5}`},
		{"non-power-of-two shards", `{"cache_shards": 6}`},
		{"negative shards", `{"cache_shards": -2}`},
	}
	for _, tc := range cases {
		if _, err := LoadOptions(strings.NewReader(tc.cfg)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestLoadOptionsCacheShards(t *testing.T) {
	t.Parallel()
	opts, err := LoadOptions(strings.NewReader(`{"cache_shards": 8}`))
	if err != nil {
		t.Fatal(err)
	}
	if opts.CacheShards != 8 {
		t.Fatalf("CacheShards = %d, want 8", opts.CacheShards)
	}
	// Explicit 0 asks for the machine-derived stripe count.
	opts, err = LoadOptions(strings.NewReader(`{"cache_shards": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	if opts.CacheShards != buffercache.AutoShards() {
		t.Fatalf("CacheShards = %d, want AutoShards %d", opts.CacheShards, buffercache.AutoShards())
	}
}

func TestStoreConfigCacheShards(t *testing.T) {
	t.Parallel()
	opts := DefaultOptions()
	opts.CacheShards = 8
	store, err := fsim.NewFileStore(opts.StoreConfig(fsim.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if got := store.Cache().NumShards(); got != 8 {
		t.Fatalf("store built under CacheShards=8 has %d shards", got)
	}
	store, err = fsim.NewFileStore(DefaultOptions().StoreConfig(fsim.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if got := store.Cache().NumShards(); got != 1 {
		t.Fatalf("store under the default options has %d shards, want 1", got)
	}
}

func TestLoadOptionsWriteback(t *testing.T) {
	t.Parallel()
	opts, err := LoadOptions(strings.NewReader(`{"writeback": 32, "sched_policy": "sstf"}`))
	if err != nil {
		t.Fatal(err)
	}
	if opts.Writeback != 32 || opts.SchedPolicy != simdisk.SSTF {
		t.Fatalf("writeback options = %d/%v", opts.Writeback, opts.SchedPolicy)
	}
	if _, err := LoadOptions(strings.NewReader(`{"writeback": -1}`)); err == nil {
		t.Fatal("negative writeback accepted")
	}
	if _, err := LoadOptions(strings.NewReader(`{"sched_policy": "elevator-of-doom"}`)); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestLoadOptionsWritebackHighwater(t *testing.T) {
	t.Parallel()
	opts, err := LoadOptions(strings.NewReader(`{"writeback": 8, "writeback_highwater": 64}`))
	if err != nil {
		t.Fatal(err)
	}
	if opts.WritebackHighwater != 64 {
		t.Fatalf("writeback_highwater = %d, want 64", opts.WritebackHighwater)
	}
	if _, err := LoadOptions(strings.NewReader(`{"writeback_highwater": 64}`)); err == nil {
		t.Fatal("high-water mark without writeback accepted")
	}
	if _, err := LoadOptions(strings.NewReader(`{"writeback": 8, "writeback_highwater": -1}`)); err == nil {
		t.Fatal("negative high-water mark accepted")
	}

	store, err := fsim.NewFileStore(opts.StoreConfig(fsim.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if got := store.Cache().Config().WritebackHighwater; got != 64 {
		t.Fatalf("store built under highwater=64 got %d", got)
	}
}

func TestStoreConfigWriteback(t *testing.T) {
	t.Parallel()
	opts := DefaultOptions()
	opts.Writeback = 16
	opts.SchedPolicy = simdisk.SCAN
	store, err := fsim.NewFileStore(opts.StoreConfig(fsim.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if !store.Cache().WritebackEnabled() {
		t.Fatal("store built under Writeback=16 has write-back disabled")
	}
	if got := store.Cache().Config().WritebackPolicy; got != simdisk.SCAN {
		t.Fatalf("write-back policy = %v, want SCAN", got)
	}
	store, err = fsim.NewFileStore(DefaultOptions().StoreConfig(fsim.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Cache().WritebackEnabled() {
		t.Fatal("store under the default options has write-back enabled")
	}
}

func TestOptionsAffectRegistry(t *testing.T) {
	t.Parallel()
	opts := DefaultOptions()
	opts.Base = 1 * time.Second
	e, ok := mustRegistry(t, opts).ByID("errorcheck")
	if !ok {
		t.Fatal("errorcheck missing")
	}
	// Experiments still run correctly under the override.
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "PASS") {
		t.Fatalf("errorcheck under override:\n%s", res.Text)
	}
}

func TestLoadOptionsFaultTolerance(t *testing.T) {
	t.Parallel()
	cfg := `{"spares": 2, "rpc_deadline": "5ms", "net_faults": "kill:server0@20ms,drop:link1@10ms+5ms"}`
	opts, err := LoadOptions(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if opts.Spares != 2 {
		t.Fatalf("spares = %d", opts.Spares)
	}
	if opts.RPCDeadline != 5*time.Millisecond {
		t.Fatalf("rpc_deadline = %v", opts.RPCDeadline)
	}
	if opts.NetFaults == nil || len(opts.NetFaults.Faults) != 2 {
		t.Fatalf("net_faults = %+v", opts.NetFaults)
	}

	for _, tc := range []struct {
		name string
		cfg  string
	}{
		{"negative spares", `{"spares": -1}`},
		{"bad deadline", `{"rpc_deadline": "soon"}`},
		{"negative deadline", `{"rpc_deadline": "-1ms"}`},
		{"bad plan", `{"rpc_deadline": "5ms", "net_faults": "explode:server0@1ms"}`},
		{"plan without deadline", `{"net_faults": "kill:server0@20ms"}`},
	} {
		if _, err := LoadOptions(strings.NewReader(tc.cfg)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestStoreConfigSpares(t *testing.T) {
	t.Parallel()
	opts := DefaultOptions()
	opts.Spares = 3
	store := fsim.MustNewFileStore(opts.StoreConfig(fsim.DefaultConfig()))
	defer store.Close()
	if store.SparePool() == nil || store.SparePool().Available() != 3 {
		t.Fatalf("store did not pick up the configured spare pool: %+v", store.SparePool())
	}
}
