package distbench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/simdisk"
)

// resultDigest hashes every field of a Result. %+v prints floats in
// their shortest round-trip form and durations in exact nanoseconds, so
// equal digests mean equal results.
func resultDigest(r Result) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", r)))
	return hex.EncodeToString(sum[:8])
}

// TestGoldenDigests pins the simulated results of the legs the
// repository benchmark does not cover: the deadline-less node sweep, a
// link-drop window, and rebuilds with and without a deadline. Any change
// to routing, the request loop, the fabric or the store that moves a
// simulated number fails here.
func TestGoldenDigests(t *testing.T) {
	rebuild := func(cfg Config, members ...int) Config {
		cfg.Store.Disks = 3
		cfg.Store.RAIDLevel = simdisk.RAID1
		cfg.Store.Spares = len(members)
		cfg.Store.Faults = &simdisk.FaultPlan{}
		for _, m := range members {
			cfg.Store.Faults.Faults = append(cfg.Store.Faults.Faults, simdisk.Fault{Disk: m, Kind: simdisk.FaultDevice})
		}
		cfg.RebuildMembers = members
		return cfg
	}
	type leg struct {
		name string
		cfg  Config
	}
	var legs []leg
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		cfg := DefaultConfig()
		cfg.Nodes = n
		legs = append(legs, leg{fmt.Sprintf("sweep_%d", n), cfg})
	}
	replicated := DefaultConfig()
	replicated.Nodes = 8
	replicated.Servers = 3
	legs = append(legs, leg{"replicated_fast", replicated})
	fastRebuild := testConfig()
	fastRebuild.Nodes = 2
	fastRebuild.RequestsPerNode = 8
	legs = append(legs, leg{"fast_rebuild", rebuild(fastRebuild, 1)})
	drop := faultConfig()
	drop.NetFaults = mustParseNetPlan(t, "drop:server0@10ms+5ms")
	legs = append(legs, leg{"drop_window", drop})
	kill := faultConfig()
	kill.NetFaults = mustParseNetPlan(t, "kill:server0@20ms")
	legs = append(legs, leg{"kill_rebuild", rebuild(kill, 1, 2)})

	want := map[string]string{
		"sweep_1":         "d6c2aad074a579b1",
		"sweep_2":         "1f496c6043eb4d0e",
		"sweep_4":         "9ba9a4959b4782d6",
		"sweep_8":         "671c35670e99b5c5",
		"sweep_16":        "d6e99605ab4aef21",
		"sweep_32":        "f5975f41e5c19949",
		"replicated_fast": "499633d7f9fa55d0",
		"fast_rebuild":    "67812f8d71e1ab05",
		"drop_window":     "c795d699aa6a770b",
		"kill_rebuild":    "ab7fa4b8db2a8e5c",
	}
	for _, l := range legs {
		res, err := Run(l.cfg)
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		if got := resultDigest(res); got != want[l.name] {
			t.Errorf("%s: digest %s, want %s", l.name, got, want[l.name])
		}
	}
}
