package distbench

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/simdisk"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.RequestsPerNode = 16
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero nodes", func(c *Config) { c.Nodes = 0 }},
		{"zero requests", func(c *Config) { c.RequestsPerNode = 0 }},
		{"zero workers", func(c *Config) { c.ServerWorkers = 0 }},
		{"negative request bytes", func(c *Config) { c.RequestBytes = -1 }},
		{"empty corpus", func(c *Config) { c.Corpus = nil }},
		{"bad net", func(c *Config) { c.Net.Bandwidth = 0 }},
		{"bad store", func(c *Config) { c.Store.Disks = 0 }},
		{"bad vm", func(c *Config) { c.VM.JITBaseCost = -1 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestRunCompletesAllRequests(t *testing.T) {
	cfg := testConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cfg.Nodes * cfg.RequestsPerNode)
	if res.Requests != want {
		t.Fatalf("completed %d requests, want %d", res.Requests, want)
	}
	if res.Makespan <= 0 || res.Throughput <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.MeanLatencyMS <= 0 || res.P99LatencyMS < res.MeanLatencyMS {
		t.Fatalf("latency stats wrong: mean %v p99 %v", res.MeanLatencyMS, res.P99LatencyMS)
	}
	if res.Curve != nil {
		t.Fatalf("deadline-less run has an availability curve: %+v", res.Curve)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestThroughputScalesThenSaturates(t *testing.T) {
	cfg := testConfig()
	results, err := Sweep(cfg, []int{1, 2, 4, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results", len(results))
	}
	// More clients must never reduce total completed requests, and
	// early scaling must be visible.
	if results[1].Throughput <= results[0].Throughput {
		t.Fatalf("2 nodes (%f req/s) not faster than 1 (%f req/s)",
			results[1].Throughput, results[0].Throughput)
	}
	// Saturation: the last doubling gains far less than the first.
	gainEarly := results[1].Throughput / results[0].Throughput
	gainLate := results[4].Throughput / results[3].Throughput
	if gainLate >= gainEarly {
		t.Fatalf("no saturation: early gain %.2fx, late gain %.2fx", gainEarly, gainLate)
	}
	// Latency must grow under contention.
	if results[4].MeanLatencyMS <= results[0].MeanLatencyMS {
		t.Fatalf("latency did not grow with load: %v vs %v",
			results[4].MeanLatencyMS, results[0].MeanLatencyMS)
	}
}

func TestWANSlowerThanLAN(t *testing.T) {
	lan := testConfig()
	wan := testConfig()
	wan.Net = netsim.WANParams()
	lanRes, err := Run(lan)
	if err != nil {
		t.Fatal(err)
	}
	wanRes, err := Run(wan)
	if err != nil {
		t.Fatal(err)
	}
	if wanRes.MeanLatencyMS <= lanRes.MeanLatencyMS {
		t.Fatalf("WAN latency %v not above LAN %v", wanRes.MeanLatencyMS, lanRes.MeanLatencyMS)
	}
	if wanRes.Throughput >= lanRes.Throughput {
		t.Fatalf("WAN throughput %v not below LAN %v", wanRes.Throughput, lanRes.Throughput)
	}
}

func TestMoreWorkersHelpUnderLoad(t *testing.T) {
	// On the default LAN the server NIC is the bottleneck and the worker
	// count is irrelevant; make the run I/O-bound (mechanical disk, tiny
	// cache) so worker parallelism matters.
	ioBound := func() Config {
		cfg := testConfig()
		cfg.Nodes = 16
		cfg.Store.Disk = simdisk.DefaultParams()
		cfg.Store.Cache.NumPages = 16
		return cfg
	}
	few := ioBound()
	few.ServerWorkers = 1
	many := ioBound()
	many.ServerWorkers = 8
	fewRes, err := Run(few)
	if err != nil {
		t.Fatal(err)
	}
	manyRes, err := Run(many)
	if err != nil {
		t.Fatal(err)
	}
	if manyRes.Throughput <= fewRes.Throughput {
		t.Fatalf("8 workers (%f req/s) not faster than 1 (%f req/s)",
			manyRes.Throughput, fewRes.Throughput)
	}
}

func TestReplicatedServersScalePastSaturation(t *testing.T) {
	// One server saturates around its NIC; two replicated servers must
	// push total throughput well beyond it at high client counts.
	single := testConfig()
	single.Nodes = 32
	single.Servers = 1
	double := testConfig()
	double.Nodes = 32
	double.Servers = 2
	sRes, err := Run(single)
	if err != nil {
		t.Fatal(err)
	}
	dRes, err := Run(double)
	if err != nil {
		t.Fatal(err)
	}
	if dRes.Throughput < 1.5*sRes.Throughput {
		t.Fatalf("2 servers (%f req/s) not ≥1.5x of 1 server (%f req/s)",
			dRes.Throughput, sRes.Throughput)
	}
}

func TestNegativeServersRejected(t *testing.T) {
	cfg := testConfig()
	cfg.Servers = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative server count accepted")
	}
}

func TestSweepDeduplicatesAndSorts(t *testing.T) {
	results, err := Sweep(testConfig(), []int{4, 1, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3 deduplicated", len(results))
	}
	if results[0].Nodes != 1 || results[1].Nodes != 2 || results[2].Nodes != 4 {
		t.Fatalf("not sorted: %v", results)
	}
}

func TestTableAndFigureRender(t *testing.T) {
	results, err := Sweep(testConfig(), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	tb := Table(results).Render()
	if !strings.Contains(tb, "Throughput") || !strings.Contains(tb, "Nodes") {
		t.Fatalf("table render:\n%s", tb)
	}
	fig := Figure(results).RenderLines(40, 8)
	if !strings.Contains(fig, "throughput") {
		t.Fatalf("figure render:\n%s", fig)
	}
}

// TestFastPathHonoursRebuildMembers: a run without a deadline rebuilds
// the configured members, as a run with one does.
func TestFastPathHonoursRebuildMembers(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 2
	cfg.RequestsPerNode = 8
	cfg.Store.Disks = 3
	cfg.Store.RAIDLevel = simdisk.RAID1
	cfg.Store.Spares = 1
	cfg.Store.Faults = &simdisk.FaultPlan{Faults: []simdisk.Fault{{Disk: 1, Kind: simdisk.FaultDevice}}}
	cfg.RebuildMembers = []int{1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != int64(cfg.Nodes*cfg.RequestsPerNode) {
		t.Fatalf("completed %d requests, want %d", res.Requests, cfg.Nodes*cfg.RequestsPerNode)
	}
	if res.RebuildRows <= 0 || res.RebuildMS <= 0 || len(res.RebuildMembers) != 1 {
		t.Fatalf("fast path ignored RebuildMembers: rows=%d ms=%.2f members=%+v",
			res.RebuildRows, res.RebuildMS, res.RebuildMembers)
	}
	if m := res.RebuildMembers[0]; m.Member != 1 || m.Rows <= 0 || m.Writes != m.Rows {
		t.Fatalf("member rebuild incomplete: %+v", m)
	}
}
