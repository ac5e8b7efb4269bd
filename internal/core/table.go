package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/buffercache"
	"repro/internal/fsim"
	"repro/internal/netsim"
	"repro/internal/simdisk"
	"repro/internal/webserver"
)

// option is one row of the options table: how one configuration value
// is spelled in a JSON config file and on the command line, how its
// text parses into Options, and what makes the parsed value invalid.
// LoadOptions, Options.Validate, and BindFlags all derive from the
// table, so a key, its flag, and its checks cannot drift apart.
type option struct {
	// key is the JSON config key; empty for flag-only options.
	key string
	// flag is the command-line flag name; empty for config-only options.
	flag string
	// def is the flag default. Its type picks the flag kind (int,
	// string, or time.Duration) and the JSON value kind: a number for
	// int and float64 defaults, a string otherwise.
	def   any
	usage string
	// set parses s into o.
	set func(o *Options, s string) error
	// check reports why o's value is invalid, or nil.
	check func(o Options) error
}

// name is how errors position the option: its JSON key, or its flag.
func (opt *option) name(byFlag bool) string {
	if opt.flag != "" && (byFlag || opt.key == "") {
		return "-" + opt.flag
	}
	return opt.key
}

// options is the table, in the order values are applied.
var options = []option{
	intOption("cpus", "", 0, "", 1, func(o *Options) *int { return &o.Machine.NumCPUs }),
	intOption("disks", "", 0, "", 1, func(o *Options) *int { return &o.Machine.NumDisks }),
	{
		key: "cpu_parallel_fraction", def: 0.0,
		set: func(o *Options, s string) (err error) {
			o.Machine.CPUParFrac, err = strconv.ParseFloat(s, 64)
			return err
		},
		check: func(o Options) error {
			if f := o.Machine.CPUParFrac; f < 0 || f > 1 {
				return fmt.Errorf("%v outside [0,1]", f)
			}
			return nil
		},
	},
	intOption("io_queue_depth", "", 0, "", 1, func(o *Options) *int { return &o.Machine.IOQueueDepth }),
	{
		key: "base_seconds", def: 0.0,
		set: func(o *Options, s string) error {
			sec, err := strconv.ParseFloat(s, 64)
			o.Base = time.Duration(sec * float64(time.Second))
			return err
		},
		check: func(o Options) error {
			if o.Base <= 0 {
				return fmt.Errorf("%v must be positive", o.Base)
			}
			return nil
		},
	},
	{
		key: "trace_file_size_mb", def: 0,
		set: func(o *Options, s string) error {
			mb, err := strconv.ParseInt(s, 10, 64)
			o.TraceParams.FileSize = mb << 20
			return err
		},
		check: func(o Options) error {
			if n := o.TraceParams.FileSize; n <= 0 {
				return fmt.Errorf("%d bytes must be positive", n)
			}
			return nil
		},
	},
	intOption("trace_requests", "", 0, "", 0, func(o *Options) *int { return &o.TraceParams.Requests }),
	{
		key: "cache_shards", flag: "shards", def: 1,
		usage: "page-cache lock stripes (power of two); 0 = derive from GOMAXPROCS",
		set: func(o *Options, s string) error {
			n, err := strconv.Atoi(s)
			if n == 0 {
				n = buffercache.AutoShards()
			}
			o.CacheShards = n
			return err
		},
		check: func(o Options) error {
			if n := o.CacheShards; n < 0 || n&(n-1) != 0 {
				return fmt.Errorf("%d must be a power of two", n)
			}
			return nil
		},
	},
	intOption("writeback", "writeback", 0,
		"background write-back threshold in dirty pages per stripe (0 = flush on close)",
		0, func(o *Options) *int { return &o.Writeback }),
	intOption("writeback_batch", "writeback-batch", 0,
		"pages per scheduled write-back drain (0 = whole dirty set)",
		0, func(o *Options) *int { return &o.WritebackBatch }),
	{
		key: "writeback_highwater", flag: "writeback-highwater", def: 0,
		usage: "dirty-page high-water mark per stripe that stalls writers (0 = never; needs -writeback)",
		set:   setParsed(strconv.Atoi, func(o *Options) *int { return &o.WritebackHighwater }),
		check: func(o Options) error {
			switch n := o.WritebackHighwater; {
			case n < 0:
				return fmt.Errorf("%d must be non-negative", n)
			case n > 0 && o.Writeback == 0:
				return fmt.Errorf("%d needs background write-back (writeback > 0)", n)
			}
			return nil
		},
	},
	{
		key: "sched_policy", flag: "sched", def: "fcfs",
		usage: "disk scheduling policy (write-back batches, and the shared queue): fcfs | sstf | scan",
		set:   setParsed(simdisk.ParsePolicy, func(o *Options) *simdisk.SchedPolicy { return &o.SchedPolicy }),
		check: func(o Options) error { return validIf(o.SchedPolicy.Valid(), o.SchedPolicy) },
	},
	{
		key: "disk_queue", flag: "disk-queue", def: "private",
		usage: "disk-queue mode: private (per-worker timing views) | shared (one contended queue)",
		set:   setParsed(fsim.ParseDiskQueue, func(o *Options) *fsim.DiskQueueMode { return &o.DiskQueue }),
		check: func(o Options) error { return validIf(o.DiskQueue.Valid(), o.DiskQueue) },
	},
	intOption("", "disks", 0, "simulated disks in the store's array (0 = config default)",
		0, func(o *Options) *int { return &o.StoreDisks }),
	{
		flag: "raid", def: "",
		usage: "array redundancy: raid0 | raid1 | raid5 (empty = config default)",
		set:   setParsed(simdisk.ParseLevel, func(o *Options) *simdisk.Level { return &o.RAID }),
	},
	{
		key: "faults", flag: "faults", def: "",
		usage: `device fault plan, e.g. "fail:1@0s,slow:0@1ms+200us..5ms,media:2@0s:4096+8192"`,
		set:   setParsed(simdisk.ParseFaultPlan, func(o *Options) **simdisk.FaultPlan { return &o.Faults }),
		check: func(o Options) error {
			cfg := o.StoreConfig(fsim.DefaultConfig())
			return o.Faults.Validate(cfg.Disks, cfg.RAIDLevel)
		},
	},
	{
		key: "inject", flag: "inject", def: "",
		usage: `seeded op-level fault schedule, e.g. "seed=7,rate=40,budget=4,ops=read|write"`,
		set:   setParsed(fsim.ParseInjectSpec, func(o *Options) *fsim.InjectSpec { return &o.Inject }),
		check: func(o Options) error { return o.Inject.Validate() },
	},
	{
		key: "retry", flag: "retry", def: "",
		usage: `recovery policy: store session retries, and distbench's failover budget, e.g. "max=3,base=50us"`,
		set:   setParsed(fsim.ParseRetrySpec, func(o *Options) *fsim.RetryPolicy { return &o.Retry }),
		check: func(o Options) error { return o.Retry.Validate() },
	},
	{
		key: "shed", flag: "shed", def: "",
		usage: `web-tier load-shedding policy, e.g. "max=8,deadline=2ms"`,
		set:   setParsed(webserver.ParseShedPolicy, func(o *Options) *webserver.ShedPolicy { return &o.Shed }),
		check: func(o Options) error { return o.Shed.Validate() },
	},
	intOption("spares", "spares", 0, "hot-spare pool size the rebuilds draw from (0 = provision ad hoc)",
		0, func(o *Options) *int { return &o.Spares }),
	{
		flag: "rebuild", def: "",
		usage: `store members to rebuild onto spares while the workload runs, e.g. "1" or "1,2" (empty = off)`,
		set:   setParsed(parseMembers, func(o *Options) *[]int { return &o.Rebuild }),
		check: func(o Options) error {
			for _, m := range o.Rebuild {
				if m < 0 {
					return fmt.Errorf("member %d must be non-negative", m)
				}
			}
			return nil
		},
	},
	{
		key: "rpc_deadline", flag: "deadline", def: time.Duration(0),
		usage: "client RPC deadline; 0 keeps the fault-free fast path",
		set:   setParsed(time.ParseDuration, func(o *Options) *time.Duration { return &o.RPCDeadline }),
		check: func(o Options) error {
			if o.RPCDeadline < 0 {
				return fmt.Errorf("%v must be non-negative", o.RPCDeadline)
			}
			return nil
		},
	},
	{
		key: "net_faults", flag: "net-faults", def: "",
		usage: `fabric fault plan, e.g. "kill:server0@20ms,drop:link1@10ms+5ms"`,
		set:   setParsed(netsim.ParseFaultPlan, func(o *Options) **netsim.FaultPlan { return &o.NetFaults }),
		check: func(o Options) error {
			if o.NetFaults != nil && o.RPCDeadline <= 0 {
				return fmt.Errorf("needs a positive RPC deadline to detect losses")
			}
			return nil
		},
	},
}

// intOption is a row for an integer field that must be at least min.
func intOption(key, flag string, def int, usage string, min int, field func(*Options) *int) option {
	return option{
		key: key, flag: flag, def: def, usage: usage,
		set: setParsed(strconv.Atoi, field),
		check: func(o Options) error {
			if n := *field(&o); n < min {
				return fmt.Errorf("%d must be at least %d", n, min)
			}
			return nil
		},
	}
}

// setParsed is a setter that parses with parse into the field selects.
func setParsed[T any](parse func(string) (T, error), field func(*Options) *T) func(*Options, string) error {
	return func(o *Options, s string) error {
		v, err := parse(s)
		if err != nil {
			return err
		}
		*field(o) = v
		return nil
	}
}

func validIf(ok bool, v any) error {
	if !ok {
		return fmt.Errorf("invalid value %v", v)
	}
	return nil
}

// parseMembers parses a rebuild member list: comma-separated
// non-negative indices ("1" or "1,2"); empty means none.
func parseMembers(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad member %q (want a non-negative index list like \"1,2\")", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// jsonText renders a config file value as the text opt's setter parses:
// numbers for int and float64 options, strings for the rest.
func (opt *option) jsonText(raw json.RawMessage) (string, error) {
	switch opt.def.(type) {
	case int:
		var n int64
		err := json.Unmarshal(raw, &n)
		return strconv.FormatInt(n, 10), err
	case float64:
		var f float64
		err := json.Unmarshal(raw, &f)
		return strconv.FormatFloat(f, 'g', -1, 64), err
	default:
		var s string
		err := json.Unmarshal(raw, &s)
		return s, err
	}
}

// Flags is a set of table options bound as command-line flags.
type Flags struct {
	fs   *flag.FlagSet
	opts []*option
}

// BindFlags registers the table options with the given flag names on
// fs, with the table's usage text and defaults. Naming a flag the table
// lacks is a programming error and panics.
func BindFlags(fs *flag.FlagSet, names ...string) *Flags {
	f := &Flags{fs: fs}
	for _, name := range names {
		opt := flagOption(name)
		switch def := opt.def.(type) {
		case int:
			fs.Int(name, def, opt.usage)
		case string:
			fs.String(name, def, opt.usage)
		case time.Duration:
			fs.Duration(name, def, opt.usage)
		}
		f.opts = append(f.opts, opt)
	}
	return f
}

func flagOption(name string) *option {
	for i := range options {
		if options[i].flag == name {
			return &options[i]
		}
	}
	panic(fmt.Sprintf("core: no option with flag -%s", name))
}

// Apply parses every bound flag's value into opts and validates the
// result; errors name the flag.
func (f *Flags) Apply(opts *Options) error {
	for _, opt := range f.opts {
		if err := opt.set(opts, f.fs.Lookup(opt.flag).Value.String()); err != nil {
			return fmt.Errorf("-%s: %w", opt.flag, err)
		}
	}
	return opts.validate(true)
}
