package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"repro/internal/distbench"
	"repro/internal/fsim"
	"repro/internal/netsim"
)

// dist_failover: distbench with 8 client nodes and 3 replicated servers.
// One pass runs five legs: the deadline-less fast path, a healthy
// fault-aware run (5 ms RPC deadline, up to 3 retries backing off from
// 200 us), and one fault-aware run per server with that server killed at
// 20 ms of simulated time.
const (
	distNodes           = 8
	distServers         = 3
	distRequestsPerNode = 256
	distKillAt          = "20ms"
	distCachePages      = 1024
)

type distLeg struct {
	name string
	cfg  distbench.Config
}

// distLegs builds one pass's legs over the seed's corpus.
func distLegs(seed uint64) ([]distLeg, error) {
	base := distbench.DefaultConfig()
	base.Nodes = distNodes
	base.Servers = distServers
	base.RequestsPerNode = distRequestsPerNode
	base.Corpus = genDistCorpus(seed)
	// A 4 MiB cache still holds the 2.2 MiB corpus; the default 64 MiB
	// one would make every leg's cluster construction (three stores of
	// 16384 frames each) outweigh the requests it serves.
	base.Store.Cache.NumPages = distCachePages
	legs := []distLeg{{name: "fast", cfg: base}}
	aware := base
	aware.Deadline = 5 * time.Millisecond
	aware.Retry = fsim.RetryPolicy{Max: 3, Base: 200 * time.Microsecond}
	legs = append(legs, distLeg{name: "healthy", cfg: aware})
	for s := 0; s < distServers; s++ {
		plan, err := netsim.ParseFaultPlan(fmt.Sprintf("kill:server%d@%s", s, distKillAt))
		if err != nil {
			return nil, err
		}
		leg := aware
		leg.NetFaults = plan
		legs = append(legs, distLeg{name: fmt.Sprintf("kill_server%d", s), cfg: leg})
	}
	return legs, nil
}

// distDigest hashes a leg's simulated result. Every field is a pure
// function of the configuration, so equal configurations give equal
// digests on any host.
func distDigest(r distbench.Result) string {
	var b []byte
	u := func(v int64) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	f := func(v float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	u(int64(r.Nodes))
	u(r.Requests)
	u(int64(r.Makespan))
	f(r.Throughput)
	f(r.MeanLatencyMS)
	f(r.P99LatencyMS)
	f(r.ServerIOMS)
	u(int64(r.NetBusy))
	u(r.TimedOut)
	u(r.Retried)
	u(r.Recovered)
	u(r.Lost)
	u(r.Dropped)
	for _, p := range r.Curve {
		b = fmt.Appendf(b, "%+v", p)
	}
	f(r.TimeToSteadyMS)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// committedDigests are the legs' expected digests, in distLegs order,
// for two seeds: seed 1 was used while the benchmark was written, seed 2
// was held out. A change claimed not to move simulated output can be
// rechecked against both.
var committedDigests = map[uint64][]string{
	1: {"b7c30457a588dd39", "fe3d673e6c49a048", "9a926775ff62c02c", "3ffec2cc281bd9b3", "91a3d99739fb22c8"},
	2: {"a586881963aa0ce0", "42cc0924a800d90a", "97e7d5eee434bb56", "e4f4ac59ae439251", "bd9968458672043a"},
}

type distFailover struct {
	legs []distLeg
	// want holds each leg's expected digest: the committed one for a
	// committed seed, otherwise the first pass's, which every later
	// pass must reproduce.
	want []string
}

func setupDist(seed uint64) (instance, error) {
	legs, err := distLegs(seed)
	if err != nil {
		return nil, err
	}
	return &distFailover{legs: legs, want: committedDigests[seed]}, nil
}

func (d *distFailover) close() {}

func (d *distFailover) measure(dur time.Duration, sp *spans) (*phase, error) {
	ph := newPhase()
	end := time.Now().Add(dur)
	for first := true; first || time.Now().Before(end); first = false {
		d.pass(ph, sp)
	}
	return ph, nil
}

// pass runs every leg once and checks each result.
func (d *distFailover) pass(ph *phase, sp *spans) {
	root := sp.begin("bench.pass", -1)
	defer sp.end(root)
	digests := make([]string, len(d.legs))
	var completed int64
	var failoverS, dropped, busyMS, timedOut, retried, recovered, lost, steady float64
	t0, c0 := time.Now(), cpuTime()
	for i, leg := range d.legs {
		total := int64(leg.cfg.Nodes * leg.cfg.RequestsPerNode)
		ph.attempted += total
		name := "distbench.fast"
		if leg.cfg.Deadline > 0 {
			name = "distbench.failover"
		}
		s := sp.begin(name, root)
		l0 := time.Now()
		res, err := distbench.Run(leg.cfg)
		el := time.Since(l0)
		sp.end(s)
		if err != nil {
			ph.fail(total, "leg %s: %v", leg.name, err)
			continue
		}
		completed += res.Requests
		digests[i] = distDigest(res)
		want := ""
		if d.want != nil {
			want = d.want[i]
		}
		if n, problems := checkLeg(leg, res, want, digests[i]); n > 0 {
			ph.fail(n, "leg %s: %v", leg.name, problems)
		}
		if leg.cfg.Deadline > 0 {
			failoverS += el.Seconds()
			timedOut += float64(res.TimedOut)
			retried += float64(res.Retried)
			recovered += float64(res.Recovered)
			lost += float64(res.Lost)
			steady = max(steady, res.TimeToSteadyMS)
		} else if sp != nil {
			ph.note("distbench.fast_s", el.Seconds())
		}
		dropped += float64(res.Dropped)
		busyMS += msOf(res.NetBusy)
	}
	el, cpu := time.Since(t0), cpuTime()-c0
	if d.want == nil {
		d.want = digests
	}
	ph.requests += completed
	ph.busy += el
	ph.rates = append(ph.rates, float64(completed)/el.Seconds())
	ph.cpuRates = append(ph.cpuRates, float64(completed)/cpu.Seconds())
	ph.lat = append(ph.lat, el)
	if sp != nil {
		ph.note("distbench.failover_s", failoverS)
		ph.note("distbench.timed_out", timedOut)
		ph.note("distbench.retried", retried)
		ph.note("distbench.recovered", recovered)
		ph.note("distbench.lost", lost)
		ph.note("distbench.worst_time_to_steady_ms", steady)
		ph.note("netsim.dropped", dropped)
		ph.note("netsim.busy_ms", busyMS)
	}
}

// checkLeg checks one leg's result: every request completed (a lost one
// fails), a kill leg noticed its kill (a kill no request timed out on
// measured nothing, so the whole leg fails), and the simulated result
// matches the expected digest (else the whole leg fails). An empty want
// skips the digest check.
func checkLeg(leg distLeg, res distbench.Result, want, got string) (int64, []string) {
	total := int64(leg.cfg.Nodes * leg.cfg.RequestsPerNode)
	var failed int64
	var problems []string
	if res.Requests+res.Lost != total {
		failed += abs(total - res.Requests - res.Lost)
		problems = append(problems, fmt.Sprintf("%d requests completed and %d lost of %d issued", res.Requests, res.Lost, total))
	}
	if res.Lost > 0 {
		failed += res.Lost
		problems = append(problems, fmt.Sprintf("%d requests lost", res.Lost))
	}
	if leg.cfg.NetFaults != nil && res.TimedOut == 0 {
		failed = total
		problems = append(problems, "the kill caused no timeout")
	}
	if want != "" && got != want {
		failed = total
		problems = append(problems, fmt.Sprintf("simulated-result digest %s, want %s", got, want))
	}
	return min(failed, total), problems
}
