package core

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fsim"
	"repro/internal/netsim"
	"repro/internal/simdisk"
)

// badJSON is, per config key, a value the loader must reject.
var badJSON = map[string]string{
	"cpus":                  `0`,
	"disks":                 `0`,
	"cpu_parallel_fraction": `1.5`,
	"io_queue_depth":        `0`,
	"base_seconds":          `-1`,
	"trace_file_size_mb":    `0`,
	"trace_requests":        `-5`,
	"cache_shards":          `6`,
	"writeback":             `-1`,
	"writeback_batch":       `-1`,
	"writeback_highwater":   `64`,
	"sched_policy":          `"elevator"`,
	"disk_queue":            `"fifo"`,
	"faults":                `"fail:1@0s"`,
	"inject":                `"budget=-1"`,
	"retry":                 `"max=x"`,
	"shed":                  `"max=-1"`,
	"spares":                `-1`,
	"rpc_deadline":          `"soon"`,
	"net_faults":            `"kill:server0@20ms"`,
}

// badFlag is, per flag, a value the flag parser must reject.
var badFlag = map[string]string{
	"shards":              "3",
	"writeback":           "-1",
	"writeback-batch":     "-1",
	"writeback-highwater": "4",
	"sched":               "elevator",
	"disk-queue":          "fifo",
	"disks":               "-1",
	"raid":                "raid9",
	"faults":              "explode:1@0s",
	"inject":              "rate=x",
	"retry":               "max=-1",
	"shed":                "deadline=soon",
	"spares":              "-1",
	"rebuild":             "1,x",
	"deadline":            "-1ms",
	"net-faults":          "kill:server0@20ms",
}

// TestEveryKeyRejectsBadValues: one case per table row with a config
// key — the loader fails and names the key.
func TestEveryKeyRejectsBadValues(t *testing.T) {
	t.Parallel()
	for _, opt := range options {
		if opt.key == "" {
			continue
		}
		bad, ok := badJSON[opt.key]
		if !ok {
			t.Errorf("config key %q has no bad-value case", opt.key)
			continue
		}
		cfg := fmt.Sprintf(`{%q: %s}`, opt.key, bad)
		_, err := LoadOptions(strings.NewReader(cfg))
		if err == nil || !strings.Contains(err.Error(), opt.key) {
			t.Errorf("LoadOptions(%s) = %v, want an error naming %q", cfg, err, opt.key)
		}
	}
}

// TestEveryFlagRejectsBadValues: one case per table row with a flag —
// the flag parser fails and names the flag.
func TestEveryFlagRejectsBadValues(t *testing.T) {
	t.Parallel()
	var names []string
	for _, opt := range options {
		if opt.flag != "" {
			names = append(names, opt.flag)
		}
	}
	for _, name := range names {
		bad, ok := badFlag[name]
		if !ok {
			t.Errorf("flag -%s has no bad-value case", name)
			continue
		}
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := BindFlags(fs, names...)
		opts := DefaultOptions()
		err := fs.Parse([]string{"-" + name, bad})
		if err == nil {
			err = f.Apply(&opts)
		}
		if err == nil || !strings.Contains(err.Error(), "-"+name) {
			t.Errorf("-%s %s: err = %v, want an error naming -%s", name, bad, err, name)
		}
	}
}

// TestFlagDefaultsAreDefaultOptions: every flag at its default leaves
// the configuration the paper's, so a binary run without flags builds
// the same store as the registry.
func TestFlagDefaultsAreDefaultOptions(t *testing.T) {
	t.Parallel()
	var names []string
	for _, opt := range options {
		if opt.flag != "" {
			names = append(names, opt.flag)
		}
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := BindFlags(fs, names...)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	if err := f.Apply(&opts); err != nil {
		t.Fatal(err)
	}
	def := DefaultOptions()
	if got, want := opts.StoreConfig(fsim.DefaultConfig()), def.StoreConfig(fsim.DefaultConfig()); got != want {
		t.Fatalf("default flags build store %+v, want %+v", got, want)
	}
	if got := opts.DistConfig(); got.Deadline != 0 || got.NetFaults != nil || got.RebuildMembers != nil {
		t.Fatalf("default flags configure faults: %+v", got)
	}
}

// TestFlagsParseIntoOptions pins the flag spellings onto their fields.
func TestFlagsParseIntoOptions(t *testing.T) {
	t.Parallel()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := BindFlags(fs, "shards", "writeback", "writeback-highwater", "sched", "disks", "raid", "faults", "spares", "rebuild", "deadline", "net-faults")
	args := []string{"-shards", "8", "-writeback", "16", "-writeback-highwater", "64", "-sched", "sstf",
		"-disks", "3", "-raid", "raid1", "-faults", "fail:1@0s", "-spares", "1", "-rebuild", "1, 2",
		"-deadline", "5ms", "-net-faults", "kill:server0@20ms"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	if err := f.Apply(&opts); err != nil {
		t.Fatal(err)
	}
	if opts.CacheShards != 8 || opts.Writeback != 16 || opts.WritebackHighwater != 64 || opts.SchedPolicy != simdisk.SSTF ||
		opts.StoreDisks != 3 || opts.RAID != simdisk.RAID1 || opts.Faults.String() != "fail:1@0s" || opts.Spares != 1 ||
		fmt.Sprint(opts.Rebuild) != "[1 2]" || opts.RPCDeadline != 5*time.Millisecond || opts.NetFaults.String() != "kill:server0@20ms" {
		t.Fatalf("parsed options = %+v", opts)
	}
	cfg := opts.DistConfig()
	if cfg.Store.Disks != 3 || cfg.Store.RAIDLevel != simdisk.RAID1 || cfg.Deadline != 5*time.Millisecond || len(cfg.RebuildMembers) != 2 {
		t.Fatalf("distbench config = %+v", cfg)
	}
}

// TestValidateRejectsInvalidFields: each value a direct caller can set
// wrongly is an error naming its key, and NewRegistry refuses it.
func TestValidateRejectsInvalidFields(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		key    string
		mutate func(*Options)
	}{
		{"cache_shards", func(o *Options) { o.CacheShards = 3 }},
		{"writeback", func(o *Options) { o.Writeback = -1 }},
		{"writeback_batch", func(o *Options) { o.WritebackBatch = -1 }},
		{"writeback_highwater", func(o *Options) { o.WritebackHighwater = 4 }},
		{"sched_policy", func(o *Options) { o.SchedPolicy = 9 }},
		{"disk_queue", func(o *Options) { o.DiskQueue = 9 }},
		{"faults", func(o *Options) {
			o.Faults = &simdisk.FaultPlan{Faults: []simdisk.Fault{{Disk: 1, Kind: simdisk.FaultDevice}}}
		}},
		{"inject", func(o *Options) { o.Inject.Budget = -1 }},
		{"retry", func(o *Options) { o.Retry.Max = -1 }},
		{"shed", func(o *Options) { o.Shed.MaxInFlight = -1 }},
		{"spares", func(o *Options) { o.Spares = -2 }},
		{"-disks", func(o *Options) { o.StoreDisks = -1 }},
		{"-rebuild", func(o *Options) { o.Rebuild = []int{-1} }},
		{"rpc_deadline", func(o *Options) { o.RPCDeadline = -time.Millisecond }},
		{"net_faults", func(o *Options) {
			o.NetFaults = &netsim.FaultPlan{Faults: []netsim.Fault{{Target: "server0", Kind: netsim.FaultKill}}}
		}},
	} {
		opts := DefaultOptions()
		tc.mutate(&opts)
		err := opts.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.key) {
			t.Errorf("%s: Validate() = %v, want an error naming it", tc.key, err)
		}
		if _, err := NewRegistry(opts); err == nil {
			t.Errorf("%s: NewRegistry accepted invalid options", tc.key)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options invalid: %v", err)
	}
}

// TestDistloadHonoursOptions: the distributed experiment runs with the
// registry's deadline and fabric fault plan.
func TestDistloadHonoursOptions(t *testing.T) {
	t.Parallel()
	opts := DefaultOptions()
	opts.RPCDeadline = 5 * time.Millisecond
	opts.NetFaults = &netsim.FaultPlan{Faults: []netsim.Fault{{Target: "server0", Kind: netsim.FaultKill, At: 20 * time.Millisecond}}}
	faulted := runExperiment(t, opts, "distload")
	healthy := runExperiment(t, DefaultOptions(), "distload")
	if !strings.Contains(faulted, "note: net faults: kill:server0@20ms") {
		t.Fatalf("faulted distload has no net-fault note:\n%s", faulted)
	}
	if faulted == healthy {
		t.Fatal("distload ignored the deadline and fault plan")
	}
}

// TestRegistriesShareNoState runs registries configured differently in
// parallel; each must reproduce its own serial output byte for byte.
func TestRegistriesShareNoState(t *testing.T) {
	t.Parallel()
	tuned := DefaultOptions()
	tuned.CacheShards = 8
	tuned.Writeback = 16
	tuned.SchedPolicy = simdisk.SSTF
	regs := []Registry{mustRegistry(t, DefaultOptions()), mustRegistry(t, tuned)}
	run := func(reg Registry) string {
		var buf bytes.Buffer
		if err := reg.Run(&buf, []string{"table1", "table3"}, "text"); err != nil {
			t.Error(err)
		}
		return buf.String()
	}
	want := make([]string, len(regs))
	for i, reg := range regs {
		want[i] = run(reg)
	}
	if want[0] == want[1] {
		t.Fatal("the tuned options do not change tables 1 and 3; the test cannot see shared state")
	}
	const rounds = 3
	var wg sync.WaitGroup
	got := make([][rounds]string, len(regs))
	for i, reg := range regs {
		for r := 0; r < rounds; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i][r] = run(reg)
			}()
		}
	}
	wg.Wait()
	for i := range regs {
		for r := 0; r < rounds; r++ {
			if got[i][r] != want[i] {
				t.Errorf("config %d round %d diverged from its serial run:\n%s\nwant:\n%s", i, r, got[i][r], want[i])
			}
		}
	}
}

func runExperiment(t *testing.T, opts Options, id string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := mustRegistry(t, opts).Run(&buf, []string{id}, "text"); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// FuzzLoadOptions: the loader never panics, and whatever it accepts is
// a valid configuration a registry can be built from.
func FuzzLoadOptions(f *testing.F) {
	f.Fuzz(func(t *testing.T, cfg string) {
		opts, err := LoadOptions(strings.NewReader(cfg))
		if err != nil {
			return
		}
		if err := opts.Validate(); err != nil {
			t.Fatalf("LoadOptions(%q) accepted options that fail Validate: %v", cfg, err)
		}
		if _, err := NewRegistry(opts); err != nil {
			t.Fatalf("LoadOptions(%q) accepted options NewRegistry refuses: %v", cfg, err)
		}
	})
}
