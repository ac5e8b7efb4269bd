// Fault-aware distributed serving: consistent-hash routing, RPC
// deadlines, failover with bounded retry + simulated-time backoff, and
// the availability curve. This is the node-level counterpart of PR 9's
// device faults — the fabric loses whole servers (netsim.FaultPlan) and
// the client tier routes around them, reporting how deep the throughput
// dipped and how long the disruption took to drain.
package distbench

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
)

// ringVnodes is the virtual-point count per server on the consistent-
// hash ring: enough to spread keys evenly at small server counts
// without making ring construction measurable.
const ringVnodes = 64

// curveBuckets is the availability curve's resolution.
const curveBuckets = 20

// ring is a consistent-hash ring over server indices. Requests route by
// file name, so a file's requests land on the same replica (cache
// affinity) and a dead server's keys redistribute across the survivors
// instead of sliding wholesale onto one neighbour.
type ring struct {
	hashes  []uint64
	servers []int
}

func newRing(nServers int) *ring {
	r := &ring{
		hashes:  make([]uint64, 0, nServers*ringVnodes),
		servers: make([]int, 0, nServers*ringVnodes),
	}
	type point struct {
		h uint64
		s int
	}
	points := make([]point, 0, nServers*ringVnodes)
	for s := 0; s < nServers; s++ {
		for v := 0; v < ringVnodes; v++ {
			points = append(points, point{h: hashKey(fmt.Sprintf("server%d#%d", s, v)), s: s})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].h != points[j].h {
			return points[i].h < points[j].h
		}
		return points[i].s < points[j].s
	})
	for _, p := range points {
		r.hashes = append(r.hashes, p.h)
		r.servers = append(r.servers, p.s)
	}
	return r
}

func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// prefs returns the key's failover order: every distinct server, walked
// clockwise from the key's ring position. The first entry is the
// primary; each retry moves one step down the list.
func (r *ring) prefs(key string, buf []int) []int {
	buf = buf[:0]
	if len(r.hashes) == 0 {
		return buf
	}
	h := hashKey(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	seen := 0
	for i := 0; i < len(r.hashes) && seen < cap(buf); i++ {
		s := r.servers[(start+i)%len(r.hashes)]
		dup := false
		for _, have := range buf {
			if have == s {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, s)
			seen++
		}
	}
	return buf
}

// nodeLayout resolves the symbolic fault targets against the run's node
// numbering: clients 0..Nodes-1, servers Nodes..Nodes+nServers-1.
func nodeLayout(nodes, nServers int) func(target string) (int, error) {
	return func(target string) (int, error) {
		for _, p := range []struct {
			prefix string
			base   int
			limit  int
		}{
			{"client", 0, nodes},
			{"server", nodes, nServers},
			{"node", 0, nodes + nServers},
			{"link", 0, nodes + nServers},
		} {
			idxStr, ok := strings.CutPrefix(target, p.prefix)
			if !ok {
				continue
			}
			idx, err := strconv.Atoi(idxStr)
			if err != nil {
				return 0, fmt.Errorf("bad %s index %q", p.prefix, idxStr)
			}
			if idx < 0 || idx >= p.limit {
				return 0, fmt.Errorf("%s%d outside 0..%d", p.prefix, idx, p.limit-1)
			}
			return p.base + idx, nil
		}
		return 0, fmt.Errorf("unknown target (want client<i>, server<i>, node<i>, link<i>, or a node index)")
	}
}

// attemptRequest runs one request attempt end to end and reports
// whether the response arrived. A lost request or response leaves the
// client waiting for its deadline; a server that is dead when the
// request would start service never serves it.
func attemptRequest(cfg Config, net *netsim.Network, srv *serverState, client int, name string, size int64, t time.Time, serverIO *metrics.Sample) (time.Time, bool, error) {
	reqArrive, lost, err := net.Send(t, client, srv.node, cfg.RequestBytes)
	if err != nil {
		return time.Time{}, false, err
	}
	if lost {
		return time.Time{}, false, nil
	}
	w := 0
	for i := range srv.workerFree {
		if srv.workerFree[i].Before(srv.workerFree[w]) {
			w = i
		}
	}
	start := reqArrive
	if srv.workerFree[w].After(start) {
		start = srv.workerFree[w]
	}
	if net.NodeDead(start, srv.node) {
		// The process died before a worker picked the request up.
		return time.Time{}, false, nil
	}
	ioTime, err := serveFile(srv.rt, srv.store, name)
	if err != nil {
		return time.Time{}, false, err
	}
	ioDone := start.Add(ioTime)
	srv.workerFree[w] = ioDone
	serverIO.AddDuration(ioTime)
	respArrive, lost, err := net.Send(ioDone, srv.node, client, size)
	if err != nil {
		return time.Time{}, false, err
	}
	if lost {
		return time.Time{}, false, nil
	}
	return respArrive, true, nil
}

// pickServer chooses the attempt's replica: the first preference
// neither tried this request nor suspected by the client, else the
// first untried one (suspicion is a hint, not a ban), else cycle the
// preference list.
func pickServer(prefs []int, suspected, tried map[int]bool, attempt int) int {
	for _, s := range prefs {
		if !tried[s] && !suspected[s] {
			return s
		}
	}
	for _, s := range prefs {
		if !tried[s] {
			return s
		}
	}
	return prefs[attempt%len(prefs)]
}

// availabilityCurve buckets completion times into a fixed-resolution
// throughput curve over [t0, end].
func availabilityCurve(t0, end time.Time, completions []time.Time) []CurvePoint {
	makespan := end.Sub(t0)
	if makespan <= 0 || len(completions) == 0 {
		return nil
	}
	counts := make([]int64, curveBuckets)
	for _, c := range completions {
		i := int(int64(c.Sub(t0)) * int64(curveBuckets) / int64(makespan))
		if i >= curveBuckets {
			i = curveBuckets - 1
		}
		counts[i]++
	}
	width := makespan / time.Duration(curveBuckets)
	curve := make([]CurvePoint, curveBuckets)
	for i, n := range counts {
		curve[i] = CurvePoint{
			EndMS:      float64(makespan) * float64(i+1) / float64(curveBuckets) / float64(time.Millisecond),
			Throughput: float64(n) / width.Seconds(),
		}
	}
	return curve
}

// FormatCurve renders the availability curve as fixed-width text rows —
// one line per bucket with a proportional bar — shared by the example
// and the distbench command.
func FormatCurve(r Result) string {
	if len(r.Curve) == 0 {
		return "(no availability curve: fault-free fast path)\n"
	}
	peak := 0.0
	for _, p := range r.Curve {
		if p.Throughput > peak {
			peak = p.Throughput
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "availability curve (%d buckets over %.2f ms):\n",
		len(r.Curve), float64(r.Makespan)/float64(time.Millisecond))
	for _, p := range r.Curve {
		bar := 0
		if peak > 0 {
			bar = int(p.Throughput / peak * 40)
		}
		fmt.Fprintf(&b, "  t<=%9.2fms %9.0f req/s |%s\n", p.EndMS, p.Throughput, strings.Repeat("#", bar))
	}
	fmt.Fprintf(&b, "  timed out %d, retried %d, recovered %d, lost %d, dropped %d",
		r.TimedOut, r.Retried, r.Recovered, r.Lost, r.Dropped)
	if r.TimeToSteadyMS > 0 {
		fmt.Fprintf(&b, ", time to steady state %.2f ms", r.TimeToSteadyMS)
	}
	b.WriteByte('\n')
	return b.String()
}
