// Perfbench is the repository's benchmark: it generates every input from
// a seed, drives one of four workloads through the layers' public APIs,
// checks every output, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as the last line of standard output:
//
//	go run . -workload stream_scan -seed 1 -seconds 10 -trace 0
//
// It measures the engine's host cost: the result line carries process
// CPU time figures, and the wall-clock ones are printed above it.
// Simulated time is the model's output and appears only among the
// per-layer counts. See README.md for the workloads, the metrics and the
// recorded findings.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// instance is one set-up workload, ready to measure.
type instance interface {
	// measure runs the workload for about d (at least one unit of work),
	// checking every output; sp, when non-nil, records spans and the
	// layers' counters.
	measure(d time.Duration, sp *spans) (*phase, error)
	close()
}

type workloadDef struct {
	name  string
	setup func(seed uint64) (instance, error)
	// procs, when positive, is the GOMAXPROCS the workload runs at;
	// otherwise it runs at the CPU count.
	procs int
}

var workloads = []workloadDef{
	{name: "stream_scan", setup: setupStream},
	{name: "shared_rw", setup: setupShared},
	{name: "web_loopback", setup: setupWeb},
	// dist_failover is one goroutine. A second P would only host the
	// collector's concurrent workers: over four same-seed runs on a
	// 2-vCPU host its CPU-time rate ranged over 20% with two Ps and
	// over 6% with one.
	{name: "dist_failover", setup: setupDist, procs: 1},
}

// phase is what one timed phase measured.
type phase struct {
	// requests is the headline work completed: trace data requests
	// (replay), HTTP requests answered (web), simulated RPCs (dist).
	requests int64
	// records counts trace records replayed (replay workloads only).
	records int64
	// busy is the wall time the counted work took.
	busy time.Duration
	// rates are requests per wall second and cpuRates requests per CPU
	// second of the process, one per pass (or, for web, per fixed
	// window); their medians are the headline throughputs.
	rates, cpuRates []float64
	// lat are client-observed latency samples: one HTTP round trip (web)
	// or one whole pass (replay, dist).
	lat []time.Duration
	// at, when window is set, holds each latency sample's completion
	// offset into the phase; percentiles are then taken per window.
	at     []time.Duration
	window time.Duration
	// attempted and failed count operations; a failed check counts every
	// operation it covers as failed.
	attempted, failed int64
	// layer holds per-pass layer counters, medians taken at the end.
	layer map[string][]float64
	// reported counts the failed checks reported so far.
	reported int
}

func newPhase() *phase { return &phase{layer: make(map[string][]float64)} }

func (p *phase) note(name string, v float64) { p.layer[name] = append(p.layer[name], v) }

// maxReported caps the failed checks a phase prints.
const maxReported = 20

// fail counts n operations failed and reports the check on stderr.
func (p *phase) fail(n int64, format string, args ...any) {
	p.failed += n
	if p.reported++; p.reported <= maxReported {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "stream_scan | shared_rw | web_loopback | dist_failover")
	seed := fl.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fl.Float64("seconds", 10, "host seconds to measure")
	traced := fl.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	spanDir := fl.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	res, err := runWorkload(*def, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *spanDir, stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setupRuns is how many times a run sets the workload up; setup_s is
// their median. All but the last instance are closed again.
const setupRuns = 5

func runWorkload(def workloadDef, seed uint64, d time.Duration, traced bool, spanDir string, out io.Writer) (*result, error) {
	if def.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(def.procs))
	}
	res := &result{Metrics: make(map[string]metricValue)}
	tally := func(p *phase) {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	// Set-up ends with one checked unit of work, so lazy state (the
	// runtime's heap, the first store and connection) has settled before
	// timing starts; it is part of set-up time.
	var inst instance
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		c0 := cpuTime()
		var err error
		if inst, err = def.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		warm, err := inst.measure(0, nil)
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
		tally(warm)
	}
	defer inst.close()

	if !traced {
		m, err := measured(inst, d, nil)
		if err != nil {
			return nil, err
		}
		tally(m.ph)
		e2e := map[string]float64{
			"setup_s":            median(setups),
			"requests_per_cpu_s": median(m.ph.cpuRates),
			"peak_heap_mib":      float64(m.peakHeap) / (1 << 20),
		}
		for _, md := range endToEnd {
			res.Metrics[md.name] = metricValue{e2e[md.name], md.unit}
		}
		// Wall-clock figures: reported, not gated (see README.md).
		fmt.Fprintf(out, "workload %s seed %d: %d requests in %.2f s wall, %.2f s CPU\n",
			def.name, seed, m.ph.requests, m.ph.busy.Seconds(), m.cpu.Seconds())
		fmt.Fprintf(out, "  requests_per_s      %.1f 1/s (median per %s)\n", median(m.ph.rates), m.ph.unitName())
		if m.ph.records > 0 {
			fmt.Fprintf(out, "  records_per_s       %.1f 1/s\n", float64(m.ph.records)/m.ph.busy.Seconds())
		}
		fmt.Fprintf(out, "  latency_p50_us      %.1f us\n", m.ph.latencyUS(0.50))
		fmt.Fprintf(out, "  latency_p99_us      %.1f us (%d samples, one per %s)\n", m.ph.latencyUS(0.99), len(m.ph.lat), m.ph.sampleName())
		fmt.Fprintf(out, "  ops_failed_ratio    %g (%d of %d)\n", ratio(res.Failed, res.Attempted), res.Failed, res.Attempted)
	} else {
		// Untraced and traced halves of the same run: their throughput
		// gap is the tracing overhead.
		plain, err := measured(inst, d/2, nil)
		if err != nil {
			return nil, err
		}
		tally(plain.ph)
		sp := newSpans()
		m, err := measured(inst, d-d/2, sp)
		if err != nil {
			return nil, err
		}
		tally(m.ph)
		vals, err := layerMetrics(inst, m, plain)
		if err != nil {
			return nil, err
		}
		for _, md := range perLayer {
			res.Metrics[md.name] = metricValue{vals[md.name], md.unit}
		}
		sp.summary(out)
		if err := sp.write(spanDir, fmt.Sprintf("%s-seed%d.json", def.name, seed)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	for _, md := range sortedMetrics(res.Metrics) {
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", md, res.Metrics[md].Value, res.Metrics[md].Unit)
		if v := res.Metrics[md].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", md, v)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// measurement is a timed phase plus what the harness observed around it.
type measurement struct {
	ph         *phase
	peakHeap   uint64
	cpu        time.Duration // process CPU time, user and system
	allocs     uint64
	allocBytes uint64
	shares     map[string]float64
	cpuSamples int64
}

// cpuTime returns the CPU time, user and system, the process has used so
// far. Unlike wall time it does not grow while the host runs someone
// else, so work per CPU second is the steadier measure of the engine's
// own cost. Getrusage on RUSAGE_SELF cannot fail on a valid pointer.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measured runs one timed phase, sampling the live heap throughout and,
// when sp is non-nil, recording a CPU profile.
func measured(inst instance, d time.Duration, sp *spans) (*measurement, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	peak := startHeapSampler()
	var prof bytes.Buffer
	if sp != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	cpu0 := cpuTime()
	ph, err := inst.measure(d, sp)
	if sp != nil {
		pprof.StopCPUProfile()
	}
	m := &measurement{ph: ph, peakHeap: peak()}
	if err != nil {
		return nil, err
	}
	m.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	m.allocs = after.Mallocs - before.Mallocs
	m.allocBytes = after.TotalAlloc - before.TotalAlloc
	if sp != nil {
		p, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		m.shares, m.cpuSamples = cpuShares(p)
	}
	return m, nil
}

// startHeapSampler polls the runtime every 5 ms until the returned
// function is called, and collects the live heap each garbage
// collection leaves (what it marked live). It returns their 90th
// percentile: the peak a run keeps coming back to. The maximum itself
// depends on where in the work single collections happen to land, and
// moved by 20-40% between runs on the allocation-heavy workloads.
func startHeapSampler() func() uint64 {
	sample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	var cycles uint64
	var live []float64
	poll := func() {
		metrics.Read(sample)
		if c := sample[0].Value.Uint64(); c != cycles {
			cycles = c
			live = append(live, float64(sample[1].Value.Uint64()))
		}
	}
	poll()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				poll()
			}
		}
	}()
	return func() uint64 {
		close(stop)
		wg.Wait()
		poll()
		sort.Float64s(live)
		return uint64(live[(len(live)*9+9)/10-1])
	}
}

// layerMetrics assembles the per-layer metrics of a traced phase m; plain
// is the untraced phase of the same run.
func layerMetrics(inst instance, m, plain *measurement) (map[string]float64, error) {
	v := make(map[string]float64)
	for name, xs := range m.ph.layer {
		v[name] = median(xs)
	}
	if di, ok := inst.(interface{ digests() int }); ok {
		v["tracesim.sim_digests"] = float64(di.digests())
	}
	if sc, ok := inst.(*streamScan); ok {
		ns, err := sc.decodeNSPerRecord()
		if err != nil {
			return nil, err
		}
		v["trace.decode_ns_per_record"] = ns
		v["trace.bytes_per_record"] = float64(len(sc.in.encoded)) / float64(sc.in.tally.Records)
	}
	sum := 0.0
	for bucket, share := range m.shares {
		sum += share
		switch bucket {
		case "gc":
			v["runtime.gc_cpu_share"] = share
		default:
			v[bucket+".cpu_share"] = share
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("cpu shares sum to %v, not 1", sum)
	}
	v["profile.samples"] = float64(m.cpuSamples)
	if m.ph.requests > 0 {
		v["runtime.allocs_per_op"] = float64(m.allocs) / float64(m.ph.requests)
		v["runtime.alloc_bytes_per_op"] = float64(m.allocBytes) / float64(m.ph.requests)
	}
	if u := median(plain.ph.rates); u > 0 {
		v["tracing.overhead_ratio"] = (u - median(m.ph.rates)) / u
	}
	return v, nil
}

// minWindowSamples is the fewest samples a window needs for its
// percentiles to count: p99 then has at least ten samples beyond it.
const minWindowSamples = 1000

// latencyUS is the q-quantile of the phase's latency samples. With
// windows it is the median over the windows' own q-quantiles, so a few
// disturbed windows (a collection, a scheduler stall) cannot carry it.
func (p *phase) latencyUS(q float64) float64 {
	if p.window == 0 {
		return percentileUS(p.lat, q)
	}
	by := make(map[int][]time.Duration)
	for i, at := range p.at {
		w := int(at / p.window)
		by[w] = append(by[w], p.lat[i])
	}
	var per []float64
	for _, lat := range by {
		if len(lat) >= minWindowSamples {
			per = append(per, percentileUS(lat, q))
		}
	}
	if len(per) == 0 {
		return percentileUS(p.lat, q)
	}
	return median(per)
}

// unitName names what the rates are taken over; sampleName what one
// latency sample is.
func (p *phase) unitName() string {
	if p.window > 0 {
		return fmt.Sprintf("%v window", p.window)
	}
	return "pass"
}

func (p *phase) sampleName() string {
	if p.window > 0 {
		return fmt.Sprintf("round trip, median over %v windows", p.window)
	}
	return "pass"
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileUS is the nearest-rank q-quantile of ds, in microseconds.
func percentileUS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	k = min(max(k, 0), len(s)-1)
	return float64(s[k]) / float64(time.Microsecond)
}

func sortedMetrics(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
