// Package distbench implements the paper's second future-work direction
// (§5): "develop benchmarks for I/O-intensive computing in a widely
// distributed environment." It places the web-server workload in a
// multi-node setting: client nodes issue file requests across a simulated
// interconnect (netsim) to a server node whose file I/O runs on the
// simulated store (fsim) through the managed runtime (vm).
//
// The benchmark sweeps the client-node count and reports throughput and
// latency, exposing the saturation point where the server's NIC and disk
// path stop scaling — the question a distributed deployment of the
// paper's web server would ask first.
package distbench

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Config wires one distributed run.
type Config struct {
	// Nodes is the number of client nodes.
	Nodes int
	// RequestsPerNode is how many sequential requests each client issues.
	RequestsPerNode int
	// Servers is the number of replicated server nodes; clients are
	// assigned round-robin. Zero means one.
	Servers int
	// ServerWorkers is each server's worker-thread count.
	ServerWorkers int
	// RequestBytes is the size of a request message on the wire.
	RequestBytes int64
	// Net parameterizes the interconnect.
	Net netsim.Params
	// VM parameterizes the server's managed runtime.
	VM vm.Config
	// Store parameterizes the server's file store.
	Store fsim.Config
	// Corpus is the served file set.
	Corpus []workload.FileSpec

	// Deadline is each client's RPC deadline. Zero sends every request
	// of client i to server i modulo the server count and leaves
	// Result.Curve nil. A positive deadline routes each request by file
	// name on a consistent-hash ring: a request whose response was lost
	// is declared failed Deadline after the attempt was issued, the
	// client fails over to the next replica on the ring, and the result
	// carries the availability curve.
	Deadline time.Duration
	// Retry bounds failover: up to Max retries per request, with
	// simulated-time exponential backoff Base<<attempt between the
	// deadline expiry and the next attempt — the same semantics as
	// fsim's session recovery. Used only when Deadline > 0.
	Retry fsim.RetryPolicy
	// NetFaults schedules node kills and link-drop windows on the
	// fabric. Symbolic targets resolve against the run's node layout:
	// "client<i>" is node i, "server<i>" is node Nodes+i, and
	// "node<i>"/"link<i>" are raw node indices. Requires Deadline > 0 —
	// without a deadline nobody would notice the loss.
	NetFaults *netsim.FaultPlan
	// RebuildMembers lists store members every server rebuilds
	// concurrently with serving (hot-spare pools: pair with
	// Store.Spares and a Store.Faults plan that kills the members).
	RebuildMembers []int
}

// DefaultConfig returns a LAN cluster serving the web corpus: 4 workers,
// 64 requests per node.
func DefaultConfig() Config {
	return Config{
		Nodes:           4,
		RequestsPerNode: 64,
		ServerWorkers:   4,
		RequestBytes:    256,
		Net:             netsim.LANParams(),
		VM:              vm.DefaultConfig(),
		Store:           fsim.DefaultConfig(),
		Corpus:          workload.WebCorpus(),
	}
}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("distbench: need at least 1 node, got %d", c.Nodes)
	case c.Servers < 0:
		return fmt.Errorf("distbench: negative server count %d", c.Servers)
	case c.RequestsPerNode < 1:
		return fmt.Errorf("distbench: need at least 1 request per node, got %d", c.RequestsPerNode)
	case c.ServerWorkers < 1:
		return fmt.Errorf("distbench: need at least 1 server worker, got %d", c.ServerWorkers)
	case c.RequestBytes < 0:
		return fmt.Errorf("distbench: negative request size %d", c.RequestBytes)
	case len(c.Corpus) == 0:
		return fmt.Errorf("distbench: empty corpus")
	}
	if c.Deadline < 0 {
		return fmt.Errorf("distbench: negative deadline %v", c.Deadline)
	}
	if c.NetFaults != nil && c.Deadline <= 0 {
		return fmt.Errorf("distbench: a network fault plan needs a positive Deadline to detect losses")
	}
	if err := c.Retry.Validate(); err != nil {
		return err
	}
	if err := c.Net.Validate(); err != nil {
		return err
	}
	if err := c.VM.Validate(); err != nil {
		return err
	}
	return c.Store.Validate()
}

// Result is one run's measurements. All times are simulated.
type Result struct {
	Nodes    int
	Requests int64
	Makespan time.Duration
	// Throughput is completed requests per simulated second.
	Throughput float64
	// MeanLatencyMS / P99LatencyMS summarize end-to-end request latency.
	MeanLatencyMS float64
	P99LatencyMS  float64
	// ServerIOMS is the mean server-side file I/O time per request.
	ServerIOMS float64
	// NetBusy is the fabric's total NIC busy time.
	NetBusy time.Duration

	// A run with a Deadline fills the availability story; without one
	// these stay zero and Curve stays nil.
	//
	// TimedOut counts deadline expiries (one per lost attempt), Retried
	// counts the failover attempts issued after them, Recovered counts
	// requests that completed after at least one timeout, and Lost
	// counts requests abandoned after exhausting the retry budget.
	// Dropped is the fabric's lost-message count.
	TimedOut  int64
	Retried   int64
	Recovered int64
	Lost      int64
	Dropped   int64
	// Curve is the availability curve: completed-request throughput per
	// fixed-width time bucket over the makespan.
	Curve []CurvePoint
	// TimeToSteadyMS is how long after the first node kill the system
	// took to drain the disruption: the last recovered request's
	// completion, measured from the kill (zero without kills).
	TimeToSteadyMS float64
	// RebuildRows/RebuildMS/RebuildMembers record the servers' member
	// rebuilds when Config.RebuildMembers is set: total blocks copied
	// across servers, the slowest copy's duration, and one server's
	// per-member outcome (servers are identical replicas).
	RebuildRows    int64
	RebuildMS      float64
	RebuildMembers []fsim.RebuildMemberResult
}

// CurvePoint is one availability-curve bucket.
type CurvePoint struct {
	// EndMS is the bucket's end, in simulated milliseconds from the run
	// start.
	EndMS float64
	// Throughput is the bucket's completed requests per simulated
	// second.
	Throughput float64
}

// serverState is one replicated server: its store, managed runtime,
// worker pool, and fabric node index. Node layout: clients 0..Nodes-1,
// servers Nodes..Nodes+nServers-1.
type serverState struct {
	store      *fsim.FileStore
	rt         *vm.Runtime
	workerFree []time.Time
	node       int
}

// buildCluster provisions the replicated servers and the fabric.
func buildCluster(cfg Config) ([]*serverState, *netsim.Network, error) {
	nServers := cfg.Servers
	if nServers == 0 {
		nServers = 1
	}
	servers := make([]*serverState, nServers)
	for i := range servers {
		store, err := fsim.NewFileStore(cfg.Store)
		if err != nil {
			return nil, nil, err
		}
		if err := workload.Install(store, cfg.Corpus); err != nil {
			return nil, nil, err
		}
		rt, err := vm.New(cfg.VM, nil)
		if err != nil {
			return nil, nil, err
		}
		rt.RegisterBCL()
		servers[i] = &serverState{
			store:      store,
			rt:         rt,
			workerFree: make([]time.Time, cfg.ServerWorkers),
			node:       cfg.Nodes + i,
		}
	}
	net, err := netsim.New(cfg.Nodes+nServers, cfg.Net)
	if err != nil {
		return nil, nil, err
	}
	return servers, net, nil
}

// Run executes one distributed load and returns its result. One event
// loop on one goroutine serves every configuration: the client with the
// earliest next-issue time steps, its request crosses the fabric, the
// chosen server's earliest-free worker serves the file, and the
// response crosses back — so every timing is a pure function of the
// configuration. Without a Deadline client i always talks to server i
// modulo the server count and the result has no availability curve;
// with one, requests route by the consistent-hash ring, a lost attempt
// fails over once the deadline expires, and the result carries the
// curve.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	servers, net, err := buildCluster(cfg)
	if err != nil {
		return Result{}, err
	}
	nServers := len(servers)
	t0 := time.Unix(0, 0)

	// Resolve and apply the fault plan against this run's layout. The
	// plan is cloned first: Resolve binds node indices, and the same
	// plan value sweeps across runs with different node counts.
	var firstKill time.Time
	if cfg.NetFaults != nil {
		plan := &netsim.FaultPlan{Faults: append([]netsim.Fault(nil), cfg.NetFaults.Faults...)}
		if err := plan.Resolve(nodeLayout(cfg.Nodes, nServers)); err != nil {
			return Result{}, err
		}
		if err := net.ApplyFaultPlan(t0, plan); err != nil {
			return Result{}, err
		}
		for _, f := range plan.Faults {
			if f.Kind != netsim.FaultKill {
				continue
			}
			if at := t0.Add(f.At); firstKill.IsZero() || at.Before(firstKill) {
				firstKill = at
			}
		}
	}

	res := Result{Nodes: cfg.Nodes}

	rebuilds, err := beginRebuilds(cfg, servers)
	if err != nil {
		return Result{}, err
	}

	rg := newRing(nServers)
	nextIssue := make([]time.Time, cfg.Nodes)
	remaining := make([]int, cfg.Nodes)
	issued := make([]int, cfg.Nodes)
	suspected := make([]map[int]bool, cfg.Nodes)
	for i := range nextIssue {
		nextIssue[i] = t0
		remaining[i] = cfg.RequestsPerNode
		suspected[i] = make(map[int]bool)
	}

	var latencies, serverIO metrics.Sample
	var completions []time.Time
	var lastRecovered time.Time
	prefBuf := make([]int, 0, nServers)
	tried := make(map[int]bool, nServers)
	end := t0

	for {
		client := -1
		for i := range nextIssue {
			if remaining[i] == 0 {
				continue
			}
			if client == -1 || nextIssue[i].Before(nextIssue[client]) {
				client = i
			}
		}
		if client == -1 {
			break
		}
		issue0 := nextIssue[client]
		spec := cfg.Corpus[(client+issued[client])%len(cfg.Corpus)]
		if cfg.Deadline > 0 {
			prefBuf = rg.prefs(spec.Name, prefBuf[:cap(prefBuf)])
			clear(tried)
		}

		t := issue0
		attempt := 0
		timedOut := false
		var completion time.Time
		for {
			s := client % nServers
			if cfg.Deadline > 0 {
				s = pickServer(prefBuf, suspected[client], tried, attempt)
				tried[s] = true
			}
			srv := servers[s]

			respArrive, ok, err := attemptRequest(cfg, net, srv, client, spec.Name, spec.Size, t, &serverIO)
			if err != nil {
				return Result{}, err
			}
			if ok {
				latencies.AddDuration(respArrive.Sub(issue0))
				completions = append(completions, respArrive)
				completion = respArrive
				res.Requests++
				if timedOut {
					res.Recovered++
					if respArrive.After(lastRecovered) {
						lastRecovered = respArrive
					}
				}
				break
			}
			// The attempt's response never arrived: the deadline fires,
			// the replica joins the client's suspect set, and the client
			// backs off before the next ring successor.
			res.TimedOut++
			timedOut = true
			suspected[client][s] = true
			expiry := t.Add(cfg.Deadline)
			if attempt >= cfg.Retry.Max {
				res.Lost++
				completion = expiry
				break
			}
			res.Retried++
			t = expiry.Add(cfg.Retry.Base << attempt)
			attempt++
		}

		if completion.After(end) {
			end = completion
		}
		nextIssue[client] = completion
		remaining[client]--
		issued[client]++
	}

	if err := finishRebuilds(rebuilds, &res); err != nil {
		return Result{}, err
	}

	makespan := end.Sub(t0)
	res.Makespan = makespan
	res.MeanLatencyMS = latencies.Mean()
	res.P99LatencyMS = latencies.Quantile(0.99)
	res.ServerIOMS = serverIO.Mean()
	res.NetBusy = net.Stats().BusyTime
	res.Dropped = net.Stats().Dropped
	if makespan > 0 {
		res.Throughput = float64(res.Requests) / makespan.Seconds()
	}
	if cfg.Deadline > 0 {
		res.Curve = availabilityCurve(t0, end, completions)
	}
	if !firstKill.IsZero() && !lastRecovered.IsZero() && lastRecovered.After(firstKill) {
		res.TimeToSteadyMS = float64(lastRecovered.Sub(firstKill)) / float64(time.Millisecond)
	}
	return res, nil
}

// beginRebuilds starts cfg.RebuildMembers' rebuilds on every server
// before any request is served: every copy starts at the virtual epoch
// on its own lane, and the foreground requests then contend with the
// rebuild streams for the survivors' busy horizons — concurrency in
// simulated time, driven in a fixed order on the wall clock. Run calls
// finishRebuilds once its loop is done.
func beginRebuilds(cfg Config, servers []*serverState) ([]*fsim.RebuildSet, error) {
	if len(cfg.RebuildMembers) == 0 {
		return nil, nil
	}
	rebuilds := make([]*fsim.RebuildSet, 0, len(servers))
	for _, srv := range servers {
		rs, err := srv.store.BeginRebuilds(cfg.RebuildMembers)
		if err != nil {
			return nil, err
		}
		rs.Run()
		rebuilds = append(rebuilds, rs)
	}
	return rebuilds, nil
}

// finishRebuilds completes the servers' rebuilds and records them in
// res: blocks copied across servers, the slowest copy, and the first
// server's per-member outcome (servers are identical replicas).
func finishRebuilds(rebuilds []*fsim.RebuildSet, res *Result) error {
	for i, rs := range rebuilds {
		if err := rs.Finish(); err != nil {
			return err
		}
		res.RebuildRows += rs.Rows()
		if ms := float64(rs.Elapsed()) / float64(time.Millisecond); ms > res.RebuildMS {
			res.RebuildMS = ms
		}
		if i == 0 {
			res.RebuildMembers = rs.Members()
		}
	}
	return nil
}

// serveFile performs the server's doGet path: open the managed stream,
// read everything, close — returning the charged duration.
func serveFile(rt *vm.Runtime, store fsim.Store, name string) (time.Duration, error) {
	stream, openDur, err := vm.OpenFileStream(rt, store, name)
	if err != nil {
		return 0, err
	}
	_, readDur, err := stream.ReadAll()
	closeDur, _ := stream.Close()
	if err != nil {
		return 0, err
	}
	return openDur + readDur + closeDur, nil
}

// NodeSweep is the default client-count sweep.
var NodeSweep = []int{1, 2, 4, 8, 16, 32}

// Sweep runs the benchmark across node counts (sorted, deduplicated) and
// returns per-count results.
func Sweep(cfg Config, nodes []int) ([]Result, error) {
	counts := append([]int(nil), nodes...)
	sort.Ints(counts)
	var out []Result
	for i, n := range counts {
		if i > 0 && counts[i-1] == n {
			continue
		}
		c := cfg
		c.Nodes = n
		res, err := Run(c)
		if err != nil {
			return nil, fmt.Errorf("distbench: %d nodes: %w", n, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Table renders sweep results as a text table.
func Table(results []Result) *metrics.Table {
	tb := metrics.NewTable(
		"Distributed load: throughput and latency vs client nodes",
		"Nodes", "Requests", "Throughput (req/s)", "Mean latency (ms)",
		"P99 latency (ms)", "Server IO (ms)")
	for _, r := range results {
		tb.AddRow(r.Nodes, r.Requests, r.Throughput, r.MeanLatencyMS, r.P99LatencyMS, r.ServerIOMS)
	}
	return tb
}

// Figure renders the throughput curve.
func Figure(results []Result) *metrics.Figure {
	labels := make([]string, len(results))
	values := make([]float64, len(results))
	for i, r := range results {
		labels[i] = fmt.Sprintf("%d", r.Nodes)
		values[i] = r.Throughput
	}
	fig := metrics.NewFigure("Distributed throughput vs client nodes",
		"client nodes", "requests/second")
	fig.Add(metrics.NewSeries("throughput", labels, values))
	return fig
}
