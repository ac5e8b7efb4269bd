package main

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/buffercache"
	"repro/internal/fsim"
	"repro/internal/simdisk"
	"repro/internal/vm"
	"repro/internal/webserver"
)

// webLoopback is the web_loopback workload: the paper's web server
// in-process on 127.0.0.1 with a lane per connection, driven by two
// persistent connections in a closed loop (each sends its next request
// only after the previous answer arrived).
type webLoopback struct {
	in      *webInput
	store   *fsim.FileStore
	srv     *webserver.Server
	clients [webConns]*webserver.Client
	// pos is each connection's next index into its request order.
	pos [webConns]int
	// sent counts requests sent since the server started; checked is how
	// many of the server's records have been checked.
	sent    int64
	checked int
}

// webWindow is the width of the windows requests_per_s and the latency
// percentiles are taken over.
const webWindow = 250 * time.Millisecond

func setupWeb(seed uint64) (instance, error) {
	w := &webLoopback{in: genWeb(seed)}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()
	var err error
	if w.store, err = fsim.NewFileStore(fsim.ShardedConfig()); err != nil {
		return nil, err
	}
	for _, f := range w.in.files {
		if _, err := w.store.Create(f.name, f.data); err != nil {
			return nil, fmt.Errorf("installing %s: %w", f.name, err)
		}
	}
	rt, err := vm.New(vm.DefaultConfig(), nil)
	if err != nil {
		return nil, err
	}
	rt.RegisterBCL()
	if w.srv, err = webserver.New(webserver.Config{Store: w.store, Runtime: rt, Lanes: true}); err != nil {
		return nil, err
	}
	addr, err := w.srv.Start()
	if err != nil {
		return nil, err
	}
	for c := range w.clients {
		if w.clients[c], err = webserver.Dial(addr); err != nil {
			return nil, err
		}
	}
	// Fill the cache: every file once, checked, alternating connections.
	var warm connResult
	for i := range w.in.files {
		w.request(i%webConns, webReq{idx: i}, time.Now(), &warm, nil)
	}
	w.sent += warm.attempted
	if len(warm.problems) > 0 {
		return nil, fmt.Errorf("warming the cache: %s", warm.problems[0])
	}
	ok = true
	return w, nil
}

func (w *webLoopback) close() {
	for _, c := range w.clients {
		if c != nil {
			c.Close()
		}
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.store != nil {
		w.store.Close()
	}
}

// connResult is one connection's share of a phase.
type connResult struct {
	at, lat   []time.Duration // completion offset and round trip
	attempted int64
	problems  []string
}

func (w *webLoopback) measure(d time.Duration, sp *spans) (*phase, error) {
	var cs0 buffercache.Stats
	var ds0 simdisk.Stats
	if sp != nil {
		cs0, ds0 = w.store.Cache().Stats(), w.store.TotalDiskStats()
	}
	start := time.Now()
	end := start.Add(d)
	// Process CPU time at every window boundary, for per-window CPU rates.
	stop := make(chan struct{})
	var cpuAt []time.Duration
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		cpuAt = append(cpuAt, cpuTime())
		tick := time.NewTicker(webWindow)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				cpuAt = append(cpuAt, cpuTime())
			}
		}
	}()
	var res [webConns]connResult
	var wg sync.WaitGroup
	for c := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &res[c]
			for first := true; first || time.Now().Before(end); first = false {
				req := w.in.order[c][w.pos[c]%len(w.in.order[c])]
				w.pos[c]++
				w.request(c, req, start, r, sp)
			}
		}()
	}
	wg.Wait()
	close(stop)
	sampler.Wait()

	ph := newPhase()
	var lastAt time.Duration
	for c := range res {
		r := &res[c]
		ph.attempted += r.attempted
		ph.lat = append(ph.lat, r.lat...)
		// Each problem is one failed request.
		for _, p := range r.problems {
			ph.fail(1, "%s", p)
		}
		w.sent += r.attempted
		for _, at := range r.at {
			lastAt = max(lastAt, at)
		}
	}
	ph.window = webWindow
	for c := range res {
		ph.at = append(ph.at, res[c].at...)
	}
	ph.requests = int64(len(ph.lat))
	ph.busy = lastAt
	ph.rates, ph.cpuRates = windowRates(res[:], d, cpuAt)

	// The server logs one record per request it answered.
	recs := w.srv.Records()
	if int64(len(recs)) != w.sent {
		ph.fail(abs(int64(len(recs))-w.sent), "server logged %d requests, clients sent %d", len(recs), w.sent)
	}
	fresh := recs[min(w.checked, len(recs)):]
	w.checked = len(recs)
	var io []float64
	var shed int64
	for _, r := range fresh {
		if r.Status != 200 || r.Shed || r.Deadlined {
			ph.fail(1, "server answered %s %s with %d", r.Kind, r.File, r.Status)
		}
		if r.Shed {
			shed++
		}
		io = append(io, float64(r.IOTime)/float64(time.Microsecond))
	}
	if sp != nil {
		ph.note("webserver.server_io_us_p50", median(io))
		ph.note("webserver.shed", float64(shed))
		cs, ds := w.store.Cache().Stats(), w.store.TotalDiskStats()
		noteCacheDisk(ph, cacheDelta(cs, cs0), diskDelta(ds, ds0))
	}
	return ph, nil
}

// request sends one request on connection c and checks the answer: a
// GET body must equal the installed file byte for byte; a POST must have
// stored exactly its payload, which is read back and removed so the
// store does not grow over the run.
func (w *webLoopback) request(c int, req webReq, start time.Time, r *connResult, sp *spans) {
	r.attempted++
	root := sp.begin("bench.request", -1)
	defer sp.end(root)
	bad := func(format string, args ...any) {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	cl := w.clients[c]
	t0 := time.Now()
	var resp *webserver.Response
	var err error
	if req.post {
		s := sp.begin("webserver.post", root)
		resp, err = cl.Post("upload", w.in.posts[req.idx])
		sp.end(s)
	} else {
		s := sp.begin("webserver.get", root)
		resp, err = cl.Get(w.in.files[req.idx].name)
		sp.end(s)
	}
	done := time.Now()
	if err != nil {
		bad("conn %d: %v", c, err)
		return
	}
	r.lat = append(r.lat, done.Sub(t0))
	r.at = append(r.at, done.Sub(start))
	if resp.Status != 200 {
		bad("conn %d: status %d: %s", c, resp.Status, resp.Body)
		return
	}
	if !req.post {
		if f := w.in.files[req.idx]; !bytes.Equal(resp.Body, f.data) {
			bad("conn %d: GET %s returned %d bytes that differ from the installed %d", c, f.name, len(resp.Body), len(f.data))
		}
		return
	}
	s := sp.begin("fsim.readback", root)
	defer sp.end(s)
	name, ok := strings.CutPrefix(string(resp.Body), "stored ")
	if !ok {
		bad("conn %d: POST answered %q", c, resp.Body)
		return
	}
	if got, err := readBack(w.store, name); err != nil {
		bad("conn %d: reading back %s: %v", c, name, err)
	} else if !bytes.Equal(got, w.in.posts[req.idx]) {
		bad("conn %d: %s holds %d bytes that differ from the %d posted", c, name, len(got), len(w.in.posts[req.idx]))
	}
	if _, err := w.store.Remove(name); err != nil {
		bad("conn %d: removing %s: %v", c, name, err)
	}
}

func readBack(st fsim.Store, name string) ([]byte, error) {
	f, _, err := st.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, f.Size())
	n, _, err := f.Read(buf)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// windowRates splits the phase into webWindow-wide windows and returns
// each whole window's completions per wall second and, from the CPU
// times sampled at the window boundaries, per CPU second.
func windowRates(res []connResult, d time.Duration, cpuAt []time.Duration) (wall, cpu []float64) {
	n := min(int(d/webWindow), len(cpuAt)-1)
	if n <= 0 {
		return nil, nil
	}
	counts := make([]int64, n)
	for _, r := range res {
		for _, at := range r.at {
			if i := int(at / webWindow); i < n {
				counts[i]++
			}
		}
	}
	for i, c := range counts {
		wall = append(wall, float64(c)/webWindow.Seconds())
		if used := cpuAt[i+1] - cpuAt[i]; used > 0 {
			cpu = append(cpu, float64(c)/used.Seconds())
		}
	}
	return wall, cpu
}

func cacheDelta(a, b buffercache.Stats) buffercache.Stats {
	return buffercache.Stats{
		Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses,
		PrefetchedIn: a.PrefetchedIn - b.PrefetchedIn, PrefetchHits: a.PrefetchHits - b.PrefetchHits,
		Evictions: a.Evictions - b.Evictions, WritebackPages: a.WritebackPages - b.WritebackPages,
		WritebackBatches: a.WritebackBatches - b.WritebackBatches, WritebackThrottles: a.WritebackThrottles - b.WritebackThrottles,
	}
}

func diskDelta(a, b simdisk.Stats) simdisk.Stats {
	return simdisk.Stats{Reads: a.Reads - b.Reads, Writes: a.Writes - b.Writes, BusyTime: a.BusyTime - b.BusyTime}
}

// noteCacheDisk records the buffer cache's and the disk model's counters.
func noteCacheDisk(ph *phase, cs buffercache.Stats, ds simdisk.Stats) {
	ph.note("buffercache.hit_ratio", ratio(cs.Hits, cs.Hits+cs.Misses))
	ph.note("buffercache.prefetch_hit_ratio", ratio(cs.PrefetchHits, cs.PrefetchedIn))
	ph.note("buffercache.evictions", float64(cs.Evictions))
	ph.note("buffercache.writeback_pages", float64(cs.WritebackPages))
	ph.note("buffercache.writeback_batches", float64(cs.WritebackBatches))
	ph.note("buffercache.writeback_throttles", float64(cs.WritebackThrottles))
	ph.note("simdisk.ops", float64(ds.Reads+ds.Writes))
	ph.note("simdisk.busy_ms", msOf(ds.BusyTime))
}
