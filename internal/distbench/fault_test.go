package distbench

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fsim"
	"repro/internal/netsim"
	"repro/internal/simdisk"
)

// faultConfig is the calibrated node-kill scenario: enough clients and
// requests that the run is still in flight at 20 ms, a deadline short
// enough to notice the loss quickly, and a retry budget that always
// reaches a live replica (3 servers, so attempt 2 is a survivor even if
// the first failover lands on another suspect).
func faultConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 8
	cfg.RequestsPerNode = 32
	cfg.Servers = 3
	cfg.Deadline = 5 * time.Millisecond
	cfg.Retry = fsim.RetryPolicy{Max: 3, Base: 200 * time.Microsecond}
	return cfg
}

func mustParseNetPlan(t *testing.T, s string) *netsim.FaultPlan {
	t.Helper()
	plan, err := netsim.ParseFaultPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestRingCoversAllServers(t *testing.T) {
	rg := newRing(5)
	buf := make([]int, 0, 5)
	prefs := rg.prefs("index.html", buf)
	if len(prefs) != 5 {
		t.Fatalf("preference list %v does not cover 5 servers", prefs)
	}
	seen := make(map[int]bool)
	for _, s := range prefs {
		if s < 0 || s >= 5 || seen[s] {
			t.Fatalf("preference list %v has an out-of-range or duplicate entry", prefs)
		}
		seen[s] = true
	}
	again := rg.prefs("index.html", make([]int, 0, 5))
	if !reflect.DeepEqual(prefs, again) {
		t.Fatalf("preference list unstable: %v vs %v", prefs, again)
	}
}

func TestRingAffinityStableUnderMembership(t *testing.T) {
	// Consistent hashing's point: going from 3 to 4 servers must keep
	// most keys' primaries, unlike modulo assignment.
	small, large := newRing(3), newRing(4)
	keys := []string{"index.html", "logo.png", "app.js", "style.css",
		"a.txt", "b.txt", "c.txt", "d.txt", "e.txt", "f.txt"}
	moved := 0
	for _, k := range keys {
		a := small.prefs(k, make([]int, 0, 3))
		b := large.prefs(k, make([]int, 0, 4))
		if a[0] != b[0] {
			moved++
		}
	}
	if moved > len(keys)/2 {
		t.Fatalf("%d/%d primaries moved when adding one server", moved, len(keys))
	}
}

func TestNodeLayoutResolution(t *testing.T) {
	layout := nodeLayout(8, 3)
	for _, tc := range []struct {
		target string
		want   int
	}{
		{"client0", 0}, {"client7", 7}, {"server0", 8}, {"server2", 10},
		{"node10", 10}, {"link3", 3},
	} {
		got, err := layout(tc.target)
		if err != nil || got != tc.want {
			t.Errorf("layout(%q) = %d, %v; want %d", tc.target, got, err, tc.want)
		}
	}
	for _, bad := range []string{"client8", "server3", "node11", "disk0", "serverx"} {
		if _, err := layout(bad); err == nil {
			t.Errorf("layout(%q) accepted", bad)
		}
	}
}

func TestFaultConfigValidation(t *testing.T) {
	cfg := faultConfig()
	cfg.Deadline = 0
	cfg.NetFaults = mustParseNetPlan(t, "kill:server0@20ms")
	if err := cfg.Validate(); err == nil {
		t.Fatal("fault plan without a deadline accepted")
	}
	cfg = faultConfig()
	cfg.Deadline = -time.Millisecond
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative deadline accepted")
	}
	cfg = faultConfig()
	cfg.Retry.Max = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative retry budget accepted")
	}
}

func TestDeadlinePathFaultFreeCompletesAll(t *testing.T) {
	cfg := faultConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cfg.Nodes * cfg.RequestsPerNode)
	if res.Requests != want {
		t.Fatalf("completed %d requests, want %d", res.Requests, want)
	}
	if res.TimedOut != 0 || res.Retried != 0 || res.Recovered != 0 || res.Lost != 0 || res.Dropped != 0 {
		t.Fatalf("fault-free deadline run produced fault tallies: %+v", res)
	}
	if len(res.Curve) != curveBuckets {
		t.Fatalf("curve has %d buckets, want %d", len(res.Curve), curveBuckets)
	}
	var curveTotal float64
	width := res.Makespan.Seconds() / float64(len(res.Curve))
	for _, p := range res.Curve {
		curveTotal += p.Throughput * width
	}
	if got := int64(curveTotal + 0.5); got != want {
		t.Fatalf("curve integrates to %d requests, want %d", got, want)
	}
}

func TestFailoverRecoversFromNodeKill(t *testing.T) {
	healthy := faultConfig()
	base, err := Run(healthy)
	if err != nil {
		t.Fatal(err)
	}
	killed := faultConfig()
	killed.NetFaults = mustParseNetPlan(t, "kill:server0@20ms")
	res, err := Run(killed)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(killed.Nodes * killed.RequestsPerNode)
	if res.Requests != want {
		t.Fatalf("completed %d requests, want %d (lost %d)", res.Requests, want, res.Lost)
	}
	if res.TimedOut == 0 || res.Retried == 0 || res.Recovered == 0 {
		t.Fatalf("kill produced no failover activity: %+v", res)
	}
	if res.Lost != 0 {
		t.Fatalf("retry budget should absorb the kill, lost %d", res.Lost)
	}
	if res.Dropped == 0 {
		t.Fatalf("fabric dropped nothing despite the kill")
	}
	if res.TimeToSteadyMS <= 0 {
		t.Fatalf("no time-to-steady-state measured: %+v", res)
	}
	if res.Makespan <= base.Makespan {
		t.Fatalf("kill did not stretch the makespan: %v vs healthy %v", res.Makespan, base.Makespan)
	}
	if res.Throughput >= base.Throughput {
		t.Fatalf("kill did not dip throughput: %.0f vs healthy %.0f", res.Throughput, base.Throughput)
	}
	out := FormatCurve(res)
	for _, wantStr := range []string{"availability curve", "timed out", "time to steady state"} {
		if !strings.Contains(out, wantStr) {
			t.Fatalf("FormatCurve missing %q:\n%s", wantStr, out)
		}
	}
}

func TestDropWindowRecoversWithoutSuspicionLingering(t *testing.T) {
	// A transient link drop loses messages inside the window only; the
	// run must still complete every request.
	cfg := faultConfig()
	cfg.NetFaults = mustParseNetPlan(t, "drop:server0@10ms+5ms")
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cfg.Nodes * cfg.RequestsPerNode)
	if res.Requests != want {
		t.Fatalf("completed %d requests, want %d (lost %d)", res.Requests, want, res.Lost)
	}
	if res.TimedOut == 0 || res.Recovered == 0 {
		t.Fatalf("drop window produced no failover activity: %+v", res)
	}
}

// TestNodeKillSweepDeterministic is the availability ablation's
// determinism contract: the node-kill sweep — consistent-hash routing,
// deadline expiries, backoff, the curve — is bit-identical across runs.
// CI replays it under -race with -count=10.
func TestNodeKillSweepDeterministic(t *testing.T) {
	run := func() []Result {
		cfg := faultConfig()
		cfg.NetFaults = mustParseNetPlan(t, "kill:server0@20ms")
		results, err := Sweep(cfg, []int{2, 4, 8})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	first := run()
	for i := 0; i < 2; i++ {
		again := run()
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("node-kill sweep diverged on run %d:\nfirst: %+v\nagain: %+v", i+2, first, again)
		}
	}
}

func TestKillWithConcurrentRebuild(t *testing.T) {
	// The combined scenario: a server node dies mid-run while every
	// server's store rebuilds two dead mirror members onto pool spares.
	cfg := faultConfig()
	cfg.NetFaults = mustParseNetPlan(t, "kill:server0@20ms")
	cfg.Store.Disks = 3
	cfg.Store.RAIDLevel = simdisk.RAID1
	cfg.Store.Spares = 2
	cfg.Store.Faults = &simdisk.FaultPlan{Faults: []simdisk.Fault{
		{Disk: 1, Kind: simdisk.FaultDevice, At: 0},
		{Disk: 2, Kind: simdisk.FaultDevice, At: 0},
	}}
	cfg.RebuildMembers = []int{1, 2}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cfg.Nodes * cfg.RequestsPerNode)
	if res.Requests != want {
		t.Fatalf("completed %d requests, want %d (lost %d)", res.Requests, want, res.Lost)
	}
	if res.Recovered == 0 {
		t.Fatalf("kill produced no recoveries: %+v", res)
	}
	if res.RebuildRows <= 0 || res.RebuildMS <= 0 {
		t.Fatalf("rebuild did not run: rows=%d ms=%.2f", res.RebuildRows, res.RebuildMS)
	}
	if len(res.RebuildMembers) != 2 {
		t.Fatalf("per-member rebuild results %+v, want 2 entries", res.RebuildMembers)
	}
	for _, m := range res.RebuildMembers {
		if m.Rows <= 0 || m.Writes != m.Rows {
			t.Fatalf("member %d rebuild incomplete: writes %d, rows %d", m.Member, m.Writes, m.Rows)
		}
	}
}
