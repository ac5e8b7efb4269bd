package core

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"repro/internal/appmodel"
	"repro/internal/distbench"
	"repro/internal/fsim"
	"repro/internal/netsim"
	"repro/internal/simdisk"
	"repro/internal/tracegen"
	"repro/internal/webserver"
)

// Options is one run's whole configuration: the experiment registry's
// and, through BindFlags, the command-line tools'. Zero fields take the
// reproduction defaults, so Options{} == the paper's configuration. The
// options table (table.go) spells every field as a JSON key, a flag, or
// both.
type Options struct {
	// Machine is benchmark 1's baseline machine.
	Machine appmodel.Machine
	// Base is benchmark 1's model-unit duration.
	Base time.Duration
	// TraceParams configures benchmark 2's generation and replay.
	TraceParams tracegen.Params
	// CacheShards is the page-cache lock-stripe count every simulated
	// store in the registry is built with. Zero keeps the paper's
	// deterministic single stripe; otherwise it must be a power of two.
	CacheShards int
	// Writeback is the page-cache background write-back threshold (dirty
	// pages per stripe) every simulated store is built with. Zero keeps
	// the paper's flush-on-close behavior.
	Writeback int
	// WritebackBatch caps how many pages one background drain submits to
	// the disk queue; zero means the whole dirty set.
	WritebackBatch int
	// WritebackHighwater is the per-stripe dirty-page high-water mark:
	// a write that saturates a stripe's dirty set stalls the foreground
	// writer until the stripe drains (pdflush throttling). Zero (the
	// default) never stalls writers; requires Writeback > 0.
	WritebackHighwater int
	// SchedPolicy orders write-back batches at the disk queue: FCFS,
	// SSTF, or SCAN. In shared disk-queue mode it also orders the
	// contended queue itself. Ignored while Writeback is zero and
	// DiskQueue is private.
	SchedPolicy simdisk.SchedPolicy
	// DiskQueue selects private per-session disk-timing views (the
	// default) or one shared contended queue across all sessions.
	DiskQueue fsim.DiskQueueMode
	// StoreDisks is the simulated store's striped disk count (the -disks
	// flag; the "disks" config key is Machine.NumDisks). Zero keeps the
	// store's default single disk.
	StoreDisks int
	// RAID is the store array's redundancy level.
	RAID simdisk.Level
	// Faults is the per-disk device fault plan (slowdowns, latent sector
	// errors, whole-device failures on simulated time) every simulated
	// store in the registry is built with. Nil keeps a healthy array.
	Faults *simdisk.FaultPlan
	// Inject is the seeded op-level fault schedule store sessions roll;
	// the zero spec injects nothing.
	Inject fsim.InjectSpec
	// Retry is the sessions' recovery policy: bounded retries with
	// simulated-time exponential backoff. The zero policy never retries.
	// The distributed benchmark reuses it as the failover retry budget.
	Retry fsim.RetryPolicy
	// Shed is the web tier's graceful-degradation policy (admission
	// control + per-request I/O deadline). The zero policy never sheds.
	Shed webserver.ShedPolicy
	// Spares provisions a hot-spare pool on every simulated store, for
	// member rebuilds after device faults. Zero keeps ad-hoc spares.
	Spares int
	// Rebuild lists store members to rebuild onto spares while the
	// workload runs; in the registry, the distributed benchmark's
	// servers rebuild them.
	Rebuild []int
	// RPCDeadline is the distributed benchmark's client RPC deadline;
	// zero sends each client to a fixed server with no failover.
	RPCDeadline time.Duration
	// NetFaults schedules node kills and link-drop windows on the
	// distributed benchmark's fabric. Requires RPCDeadline > 0.
	NetFaults *netsim.FaultPlan
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		Machine:     appmodel.DefaultMachine(),
		Base:        appmodel.QCRDBaseTime,
		TraceParams: tracegen.DefaultParams(),
	}
}

// fillDefaults replaces zero fields with defaults.
func (o Options) fillDefaults() Options {
	def := DefaultOptions()
	if o.Machine == (appmodel.Machine{}) {
		o.Machine = def.Machine
	}
	if o.Base == 0 {
		o.Base = def.Base
	}
	if o.TraceParams == (tracegen.Params{}) {
		o.TraceParams = def.TraceParams
	}
	return o
}

// Validate reports the first invalid value, named by its config key
// (or its flag, for flag-only options), or nil. Zero fields take the
// defaults first.
func (o Options) Validate() error { return o.validate(false) }

func (o Options) validate(byFlag bool) error {
	o = o.fillDefaults()
	for i := range options {
		opt := &options[i]
		if opt.check == nil {
			continue
		}
		if err := opt.check(o); err != nil {
			if byFlag {
				return fmt.Errorf("%s: %w", opt.name(true), err)
			}
			return fmt.Errorf("core: %s: %w", opt.name(false), err)
		}
	}
	// The fields no option spells (stripe unit, sample file, ...).
	if err := o.Machine.Validate(); err != nil {
		return err
	}
	return o.TraceParams.Validate()
}

// StoreConfig overlays o's store options on base: the one mapping from
// Options to a simulated store's configuration. Every store the
// registry builds, and every store the command-line tools build, comes
// from it.
func (o Options) StoreConfig(base fsim.Config) fsim.Config {
	cfg := base
	if o.CacheShards > 0 {
		cfg.Cache.Shards = o.CacheShards
	}
	cfg.Cache.WritebackThreshold = o.Writeback
	cfg.Cache.WritebackBatch = o.WritebackBatch
	cfg.Cache.WritebackHighwater = o.WritebackHighwater
	cfg.Cache.WritebackPolicy = o.SchedPolicy
	cfg.DiskQueue = o.DiskQueue
	if o.StoreDisks > 0 {
		cfg.Disks = o.StoreDisks
	}
	cfg.RAIDLevel = o.RAID
	cfg.Faults = o.Faults
	cfg.Inject = o.Inject
	cfg.Retry = o.Retry
	cfg.Spares = o.Spares
	return cfg
}

// DistConfig maps o onto the distributed benchmark: its servers' stores
// via StoreConfig, and the fault-tolerance options — the RPC deadline,
// Retry as the failover budget, the fabric fault plan, and the members
// every server rebuilds.
func (o Options) DistConfig() distbench.Config {
	cfg := distbench.DefaultConfig()
	cfg.Store = o.StoreConfig(cfg.Store)
	cfg.Deadline = o.RPCDeadline
	cfg.Retry = o.Retry
	cfg.NetFaults = o.NetFaults
	cfg.RebuildMembers = o.Rebuild
	return cfg
}

// LoadOptions reads a JSON configuration of option-table keys, overlays
// it on the defaults, and validates the result. Unknown keys are
// rejected so typos fail loudly; errors name the key.
func LoadOptions(r io.Reader) (Options, error) {
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return Options{}, fmt.Errorf("core: parsing config: %w", err)
	}
	keys := make([]string, 0, len(raw))
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !slices.ContainsFunc(options, func(opt option) bool { return opt.key == k }) {
			return Options{}, fmt.Errorf("core: unknown config key %q", k)
		}
	}
	opts := DefaultOptions()
	for i := range options {
		opt := &options[i]
		v, ok := raw[opt.key]
		if opt.key == "" || !ok || string(v) == "null" {
			continue
		}
		text, err := opt.jsonText(v)
		if err == nil {
			err = opt.set(&opts, text)
		}
		if err != nil {
			return Options{}, fmt.Errorf("core: %s: %w", opt.key, err)
		}
	}
	if err := opts.Validate(); err != nil {
		return Options{}, err
	}
	return opts, nil
}
