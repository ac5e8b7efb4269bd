package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/distbench"
	"repro/internal/fsim"
	"repro/internal/trace"
	"repro/internal/tracesim"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric and
// workload tables the binary prints from in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ", "), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %s, binary runs %s", got, want)
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the binary %d", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better || (m.Bound != nil) != bounded || (bounded && *m.Bound != w.bound) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, binary %+v", kind, i, m, w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

func streamTrace(seed uint64) []trace.Record {
	var recs []trace.Record
	streamRecords(seed, func(r trace.Record) { recs = append(recs, r) })
	return recs
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	type inputs struct {
		stream []byte
		shared *trace.Trace
		web    *webInput
		dist   any
	}
	gen := func(seed uint64) inputs {
		s, err := genStream(seed)
		if err != nil {
			t.Fatal(err)
		}
		return inputs{s.encoded, genShared(seed), genWeb(seed), genDistCorpus(seed)}
	}
	a, b, c := gen(1), gen(1), gen(2)
	if !bytes.Equal(a.stream, b.stream) || !reflect.DeepEqual(a.shared, b.shared) ||
		!reflect.DeepEqual(a.web, b.web) || !reflect.DeepEqual(a.dist, b.dist) {
		t.Error("the same seed gave different inputs")
	}
	if bytes.Equal(a.stream, c.stream) || reflect.DeepEqual(a.shared, c.shared) ||
		reflect.DeepEqual(a.web, c.web) || reflect.DeepEqual(a.dist, c.dist) {
		t.Error("a different seed gave an identical input")
	}
}

// TestWorkingSets pins each workload's footprint relative to the 64 MiB
// cache: stream_scan about 12x, shared_rw about 3/4, the web and dist
// corpora well inside it.
func TestWorkingSets(t *testing.T) {
	cache := float64(cacheBytes())
	if cache != 64<<20 {
		t.Fatalf("cache is %v bytes, the workloads are sized for 64 MiB", cache)
	}
	for _, seed := range []uint64{1, 2} {
		stream := float64(footprintPages(func(emit func(trace.Record)) { streamRecords(seed, emit) })*pageSize) / cache
		if stream < 11.5 || stream > 12 {
			t.Errorf("seed %d: stream_scan footprint is %.2fx the cache, want about 12x", seed, stream)
		}
		tr := genShared(seed)
		shared := float64(footprintPages(func(emit func(trace.Record)) {
			for _, r := range tr.Records {
				emit(r)
			}
		})*pageSize) / cache
		if shared < 0.7 || shared > 0.75 {
			t.Errorf("seed %d: shared_rw footprint is %.3fx the cache, want about 3/4", seed, shared)
		}
		var web float64
		for _, f := range genWeb(seed).files {
			web += float64(len(f.data))
		}
		if web/cache > 0.2 {
			t.Errorf("seed %d: web corpus is %.2fx the cache, want it to fit", seed, web/cache)
		}
		var dist float64
		for _, f := range genDistCorpus(seed) {
			dist += float64(f.Size)
		}
		if dist/cache > 0.1 {
			t.Errorf("seed %d: dist corpus is %.2fx the cache, want it to fit", seed, dist/cache)
		}
	}
}

// replayStreamRecords replays recs as a stream_scan trace on a fresh store.
func replayStreamRecords(t *testing.T, recs []trace.Record) *tracesim.Report {
	t.Helper()
	var buf bytes.Buffer
	enc, err := trace.NewEncoder(&buf, trace.Header{NumProcesses: streamPIDs, NumFiles: 1, SampleFile: streamSample})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := enc.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	store, err := newStreamStore()
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s := &streamScan{in: &streamInput{encoded: buf.Bytes()}}
	rep, err := s.replayOnce(store)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func dropFirst(recs []trace.Record, op trace.Op) []trace.Record {
	for i, r := range recs {
		if r.Op == op {
			return append(append([]trace.Record(nil), recs[:i]...), recs[i+1:]...)
		}
	}
	return recs
}

func TestReplayChecksRejectDroppedRecord(t *testing.T) {
	recs := streamTrace(1)
	in, err := genStream(1)
	if err != nil {
		t.Fatal(err)
	}
	if n, p := checkReplay(replayStreamRecords(t, recs), in.tally); n != 0 {
		t.Fatalf("stream_scan: the faithful replay failed %d operations: %v", n, p)
	}
	if n, _ := checkReplay(replayStreamRecords(t, dropFirst(recs, trace.OpWrite)), in.tally); n == 0 {
		t.Error("stream_scan: a replay missing a write passed its checks")
	}

	tr := genShared(1)
	want := tallyOf(tr)
	replay := func(tr *trace.Trace) *tracesim.Report {
		store, err := newSharedStore()
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		rep, err := tracesim.NewReplayer(store).ReplayConcurrent("shared_rw", tr)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := replay(tr)
	if n, p := checkReplay(rep, want); n != 0 {
		t.Fatalf("shared_rw: the faithful replay failed %d operations: %v", n, p)
	}
	short := &trace.Trace{Header: tr.Header, Records: dropFirst(tr.Records, trace.OpRead)}
	short.Header.NumRecords--
	if n, _ := checkReplay(replay(short), want); n == 0 {
		t.Error("shared_rw: a replay missing a read passed its checks")
	}
	// A row whose bytes changed, with every count intact.
	rep.Requests[0].Size += pageSize
	if n, _ := checkReplay(rep, want); n == 0 {
		t.Error("shared_rw: a report with a changed request size passed its checks")
	}
}

func TestWebCheckRejectsFlippedByte(t *testing.T) {
	inst, err := setupWeb(1)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	w := inst.(*webLoopback)
	ph, err := w.measure(200*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed != 0 || ph.requests == 0 {
		t.Fatalf("faithful serving: %d of %d requests failed", ph.failed, ph.attempted)
	}
	// Corrupt one byte of an installed file behind the server's back.
	f := w.in.files[7]
	bad := append([]byte(nil), f.data...)
	bad[len(bad)/2] ^= 0x40
	if _, err := w.store.Create(f.name, bad); err != nil {
		t.Fatal(err)
	}
	for c := range w.in.order {
		w.in.order[c] = []webReq{{idx: 7}}
	}
	ph, err = w.measure(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed != webConns {
		t.Errorf("GETs of a file with a flipped byte: %d of %d failed, want all", ph.failed, ph.attempted)
	}
}

func TestDistChecks(t *testing.T) {
	// Both committed seeds reproduce their digests, and a committed
	// digest that differs fails its whole leg.
	for seed := range committedDigests {
		inst, err := setupDist(seed)
		if err != nil {
			t.Fatal(err)
		}
		if ph, _ := inst.measure(0, nil); ph.failed != 0 {
			t.Errorf("seed %d: %d of %d requests failed", seed, ph.failed, ph.attempted)
		}
	}
	saved := committedDigests[1]
	defer func() { committedDigests[1] = saved }()
	committedDigests[1] = append([]string{"0123456789abcdef"}, saved[1:]...)
	inst, err := setupDist(1)
	if err != nil {
		t.Fatal(err)
	}
	if ph, _ := inst.measure(0, nil); ph.failed != distNodes*distRequestsPerNode {
		t.Errorf("a changed committed digest failed %d requests, want one leg's %d", ph.failed, distNodes*distRequestsPerNode)
	}

	legs, err := distLegs(1)
	if err != nil {
		t.Fatal(err)
	}
	kill := legs[len(legs)-1]
	res, err := distbench.Run(kill.cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := distDigest(res)
	if n, p := checkLeg(kill, res, got, got); n != 0 {
		t.Fatalf("faithful leg failed %d requests: %v", n, p)
	}
	lost := res
	lost.Requests--
	lost.Lost++
	if n, _ := checkLeg(kill, lost, "", distDigest(lost)); n == 0 {
		t.Error("a lost RPC passed the checks")
	}
	unnoticed := res
	unnoticed.TimedOut = 0
	if n, _ := checkLeg(kill, unnoticed, "", distDigest(unnoticed)); n != distNodes*distRequestsPerNode {
		t.Errorf("a kill leg without a timeout failed %d requests, want all %d", n, distNodes*distRequestsPerNode)
	}
}

func TestCPUSharesSumToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	store, err := fsim.NewFileStore(fsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		if _, err := store.Create("f", make([]byte, 1<<16)); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares, n := cpuShares(p)
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if n == 0 || sum < 1-1e-9 || sum > 1+1e-9 {
		t.Fatalf("%d samples, shares sum to %v", n, sum)
	}
	if shares["fsim"] == 0 {
		t.Errorf("no CPU attributed to fsim while it ran: %v", shares)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/simdisk/sharedq.(*Queue).Access":         "sharedq",
		"repro/internal/simdisk.(*Disk).AccessRun":               "simdisk",
		"repro/internal/buffercache.(*shard).lookupRun":          "buffercache",
		"repro/internal/fsim/stdfs.(*FS).Open":                   "fsim",
		"repro/internal/metrics.(*Summary).Add":                  "",
		"internal/poll.(*FD).Read":                               "syscall",
		"runtime.memclrNoHeapPointers":                           "",
		"main.(*replayBench).measure":                            "",
		"repro/internal/tracesim.(*Replayer).ReplayStream.func1": "tracesim",
	} {
		if got := layerOf(funcPackage(fn)); got != want {
			t.Errorf("layerOf(%s) = %q, want %q", fn, got, want)
		}
	}
}

// TestRunOutput runs every workload briefly both ways and checks the
// last line of output against the contract: the four keys, and exactly
// the end-to-end (non-zero) or per-layer metrics.
func TestRunOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			var out bytes.Buffer
			code := run([]string{"-workload", w.name, "-seed", "3", "-seconds", "0.3", "-trace", traced, "-spans", dir}, &out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || code != 0 {
				t.Fatalf("%s trace %s: exit %d, last line %q: %v", w.name, traced, code, lines[len(lines)-1], err)
			}
			if len(res) != 4 {
				t.Errorf("%s: result has keys %v", w.name, res)
			}
			var metrics map[string]metricValue
			if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if traced == "1" {
				want = perLayer
			}
			if len(metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.name, traced, len(metrics), len(want))
			}
			for _, md := range want {
				m, ok := metrics[md.name]
				if !ok || m.Unit != md.unit || (traced == "0" && !(m.Value > 0)) {
					t.Errorf("%s trace %s: metric %s = %+v", w.name, traced, md.name, m)
				}
			}
		}
	}
}

// cacheBytes is the page-cache capacity the replay stores use
// (fsim.DefaultConfig: 16384 pages of 4 KiB, 64 MiB).
func cacheBytes() int64 {
	c := fsim.DefaultConfig().Cache
	return int64(c.NumPages) * c.PageSize
}

// footprintPages counts the distinct cache pages a trace's reads and
// writes touch: the working set to compare with the cache.
func footprintPages(recs func(func(trace.Record))) int64 {
	seen := make(map[int64]struct{})
	recs(func(rec trace.Record) {
		if rec.Op != trace.OpRead && rec.Op != trace.OpWrite {
			return
		}
		for p := rec.Offset / pageSize; p*pageSize < rec.Offset+rec.Length; p++ {
			seen[p] = struct{}{}
		}
	})
	return int64(len(seen))
}
