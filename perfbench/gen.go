package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"repro/internal/trace"
	"repro/internal/workload"
)

// Every input the benchmark hands the program is a pure function of the
// seed and the workload: the same seed gives byte-identical inputs, so a
// run is reproducible from its command line alone.

const pageSize = 4 << 10

// newRand returns the workload's private deterministic stream for seed.
// The salt keeps the four workloads' streams apart for equal seeds.
func newRand(seed uint64, salt string) *rand.Rand {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(salt); i++ {
		h = (h ^ uint64(salt[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// opTally is the per-operation count and byte total a trace asks for:
// the reference a replay report is checked against.
type opTally struct {
	Opens, Closes, Reads, Writes, Seeks int64
	ReadBytes, WriteBytes               int64
	Records                             int64
	// lengths holds every read and write length the trace uses.
	lengths map[int64]bool
}

func (t *opTally) add(r *trace.Record) {
	t.Records++
	if r.Op == trace.OpRead || r.Op == trace.OpWrite {
		if t.lengths == nil {
			t.lengths = make(map[int64]bool)
		}
		t.lengths[r.Length] = true
	}
	n := int64(r.Count)
	switch r.Op {
	case trace.OpOpen:
		t.Opens += n
	case trace.OpClose:
		t.Closes += n
	case trace.OpRead:
		t.Reads += n
		t.ReadBytes += n * r.Length
	case trace.OpWrite:
		t.Writes += n
		t.WriteBytes += n * r.Length
	case trace.OpSeek:
		t.Seeks += n
	}
}

// requests is the number of data requests (seek/read/write rows) the
// replay report must count in TotalRequests.
func (t opTally) requests() int64 { return t.Reads + t.Writes + t.Seeks }

// interleave emits each process's records in order, choosing which
// process steps next from r, so the trace mixes the processes the way a
// captured multi-process trace does. step(pid, i) emits process pid's
// i-th step; open and close bracket each process.
func interleave(r *rand.Rand, pids, steps int, emit func(trace.Record), step func(pid, i int)) {
	next := make([]int, pids)
	live := make([]int, pids)
	for i := range live {
		live[i] = i
	}
	for len(live) > 0 {
		k := r.IntN(len(live))
		pid := live[k]
		if next[pid] == 0 {
			emit(trace.Record{Op: trace.OpOpen, Count: 1, PID: uint32(pid)})
		}
		step(pid, next[pid])
		next[pid]++
		if next[pid] == steps {
			emit(trace.Record{Op: trace.OpClose, Count: 1, PID: uint32(pid)})
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
}

// stream_scan: an out-of-core partitioned scan. Eight processes each own
// a 128 MiB partition of a 1 GiB sparse sample file and read the first
// three quarters of it in 64 KiB requests: sequential runs of 32 reads,
// each starting at a random chunk, with every eighth read rewritten in
// place. The footprint is 8 x 96 MiB = 768 MiB, 12x the 64 MiB cache.
// The seed moves the runs, not their number or length, so every seed
// asks for the same amount of work.
const (
	streamPIDs        = 8
	streamFileSize    = 1 << 30
	streamIOSize      = 64 << 10
	streamReadsPerPID = 12_500
	streamRunLength   = 32
	streamSample      = "sample-1gb.dat"
)

func streamRecords(seed uint64, emit func(trace.Record)) {
	r := newRand(seed, "stream_scan")
	region := int64(streamFileSize / streamPIDs)
	chunks := int(region * 3 / 4 / streamIOSize)
	pos := make([]int, streamPIDs)
	runLeft := make([]int, streamPIDs)
	wall := int64(0)
	emitAt := func(rec trace.Record) {
		wall += 500
		rec.WallClock = wall
		emit(rec)
	}
	interleave(r, streamPIDs, streamReadsPerPID, emitAt, func(pid, i int) {
		if runLeft[pid] == 0 {
			pos[pid] = r.IntN(chunks)
			runLeft[pid] = streamRunLength
		}
		off := int64(pid)*region + int64(pos[pid])*streamIOSize
		pos[pid] = (pos[pid] + 1) % chunks
		runLeft[pid]--
		emitAt(trace.Record{Op: trace.OpRead, Count: 1, PID: uint32(pid), Offset: off, Length: streamIOSize})
		if i%8 == 7 {
			emitAt(trace.Record{Op: trace.OpWrite, Count: 1, PID: uint32(pid), Offset: off, Length: streamIOSize})
		}
	})
}

// streamInput is stream_scan's pre-encoded v2 trace and its reference
// tally.
type streamInput struct {
	encoded []byte
	tally   opTally
}

func genStream(seed uint64) (*streamInput, error) {
	var buf bytes.Buffer
	enc, err := trace.NewEncoder(&buf, trace.Header{NumProcesses: streamPIDs, NumFiles: 1, SampleFile: streamSample})
	if err != nil {
		return nil, fmt.Errorf("stream_scan: encoder: %w", err)
	}
	in := &streamInput{}
	streamRecords(seed, func(rec trace.Record) {
		in.tally.add(&rec)
		if err == nil {
			err = enc.Append(&rec)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("stream_scan: encoding: %w", err)
	}
	if err := enc.Close(); err != nil {
		return nil, fmt.Errorf("stream_scan: encoding: %w", err)
	}
	in.encoded = buf.Bytes()
	return in, nil
}

// shared_rw: a consolidated server. Eight processes split their requests
// evenly between one 16 MiB region they all share and a 4 MiB region of
// their own; 40% of requests are writes; sizes are 4-64 KiB in whole
// pages. The footprint is 16 + 8 x 4 = 48 MiB, three quarters of the
// cache, so the cache runs hot and dirty rather than evicting.
const (
	sharedPIDs       = 8
	sharedHot        = 16 << 20
	sharedPrivate    = 4 << 20
	sharedOpsPerPID  = 2_500
	sharedFileSize   = 64 << 20
	sharedSample     = "shared-64mb.dat"
	sharedWriteShare = 0.4
)

func genShared(seed uint64) *trace.Trace {
	r := newRand(seed, "shared_rw")
	tr := &trace.Trace{Header: trace.Header{NumProcesses: sharedPIDs, NumFiles: 1, SampleFile: sharedSample}}
	wall := int64(0)
	emit := func(rec trace.Record) {
		wall += 500
		rec.WallClock = wall
		tr.Records = append(tr.Records, rec)
	}
	interleave(r, sharedPIDs, sharedOpsPerPID, emit, func(pid, _ int) {
		base, span := int64(0), int64(sharedHot)
		if r.IntN(2) == 1 {
			base, span = sharedHot+int64(pid)*sharedPrivate, sharedPrivate
		}
		size := int64(1+r.IntN(16)) * pageSize
		off := base + int64(r.IntN(int((span-size)/pageSize)+1))*pageSize
		op := trace.OpRead
		if r.Float64() < sharedWriteShare {
			op = trace.OpWrite
		}
		emit(trace.Record{Op: op, Count: 1, PID: uint32(pid), Offset: off, Length: size})
	})
	tr.Header.NumRecords = uint32(len(tr.Records))
	return tr
}

func tallyOf(tr *trace.Trace) opTally {
	var t opTally
	for i := range tr.Records {
		t.add(&tr.Records[i])
	}
	return t
}

// web_loopback: a corpus of 256 files of 4-64 KiB (8.5 MiB, well inside
// the cache), 32 POST payloads of the same sizes, and for each of
// the two connections a request order of 90% GETs and 10% POSTs.
const (
	webFiles    = 256
	webPayloads = 32
	webConns    = 2
	webOrderLen = 4096
	webPostPct  = 10
)

type webFile struct {
	name string
	data []byte
}

// webReq is one request of a connection's order: a GET of files[idx] or
// a POST of posts[idx].
type webReq struct {
	post bool
	idx  int
}

type webInput struct {
	files []webFile
	posts [][]byte
	order [webConns][]webReq
}

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; i += 8 {
		v := r.Uint64()
		for j := i; j < i+8 && j < n; j++ {
			b[j] = byte(v)
			v >>= 8
		}
	}
	return b
}

// sizeLadder returns n sizes spread evenly over 4-64 KiB in an order
// drawn from r: seeds shuffle which file gets which size, but every
// corpus holds the same bytes in total.
func sizeLadder(r *rand.Rand, n int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 4<<10 + i*(60<<10)/(n-1)
	}
	r.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

func genWeb(seed uint64) *webInput {
	r := newRand(seed, "web_loopback")
	in := &webInput{}
	for i, size := range sizeLadder(r, webFiles) {
		in.files = append(in.files, webFile{name: fmt.Sprintf("doc%03d.bin", i), data: randBytes(r, size)})
	}
	for _, size := range sizeLadder(r, webPayloads) {
		in.posts = append(in.posts, randBytes(r, size))
	}
	for c := range in.order {
		for i := 0; i < webOrderLen; i++ {
			if r.IntN(100) < webPostPct {
				in.order[c] = append(in.order[c], webReq{post: true, idx: r.IntN(webPayloads)})
			} else {
				in.order[c] = append(in.order[c], webReq{idx: r.IntN(webFiles)})
			}
		}
	}
	return in
}

// dist_failover: 64 files of 4-64 KiB whose names carry a seed-derived
// tag, so each seed places primaries differently on the consistent-hash
// ring; the sizes are a shuffled ladder, as for web_loopback.
const distFiles = 64

func genDistCorpus(seed uint64) []workload.FileSpec {
	r := newRand(seed, "dist_failover")
	specs := make([]workload.FileSpec, distFiles)
	for i, size := range sizeLadder(r, distFiles) {
		specs[i] = workload.FileSpec{Name: fmt.Sprintf("obj%02d-%08x.bin", i, r.Uint32()), Size: int64(size)}
	}
	return specs
}
