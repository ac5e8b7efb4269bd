package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzip-compressed protobuf runtime/pprof
// writes: just enough of profile.proto to walk each CPU sample's stack.
// The module has no dependencies, so google/pprof is not available.

type cpuSample struct {
	locs  []uint64
	value int64 // CPU nanoseconds (or the sample count when absent)
}

type cpuProfile struct {
	samples []cpuSample
	// funcsAt maps a location id to the function ids inlined at it,
	// innermost first, as profile.proto orders Location.line.
	funcsAt map[uint64][]uint64
	// nameOf maps a function id to its string-table index.
	nameOf  map[uint64]int64
	strings []string
}

var errProto = errors.New("pprof: malformed protobuf")

type protoField struct {
	num    int
	wire   int
	varint uint64
	bytes  []byte
}

func readVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// eachField calls fn for every top-level field of the message in b.
func eachField(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, n := readVarint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.varint, n = readVarint(b); n == 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := readVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// uints appends a repeated integer field, packed or not.
func uints(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.varint), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := readVarint(b)
		if n == 0 {
			return nil, errProto
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p := &cpuProfile{funcsAt: make(map[uint64][]uint64), nameOf: make(map[uint64]int64)}
	err = eachField(raw, func(f protoField) error {
		switch f.num {
		case 2: // Sample
			var s cpuSample
			var vals []uint64
			err := eachField(f.bytes, func(g protoField) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = uints(s.locs, g)
				case 2:
					vals, err = uints(vals, g)
				}
				return err
			})
			if err != nil {
				return err
			}
			// CPU profiles carry [samples/count, cpu/nanoseconds].
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(f.bytes, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.varint
				case 4: // Line
					return eachField(g.bytes, func(h protoField) error {
						if h.num == 1 {
							fns = append(fns, h.varint)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcsAt[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(f.bytes, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.varint
				case 2:
					name = int64(g.varint)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.nameOf[id] = name
		case 6:
			p.strings = append(p.strings, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// stack returns a sample's function names, leaf first.
func (p *cpuProfile) stack(s cpuSample) []string {
	var out []string
	for _, loc := range s.locs {
		for _, fn := range p.funcsAt[loc] {
			if i := p.nameOf[fn]; i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// funcPackage returns the import path of a qualified function name such
// as "repro/internal/simdisk/sharedq.(*Queue).Access".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// layerOf maps a package to the layer it belongs to, or "".
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		switch rest {
		case "fsim/stdfs":
			return "fsim"
		case "simdisk/sharedq":
			return "sharedq"
		case "trace", "tracesim", "fsim", "buffercache", "simdisk", "webserver", "vm", "netsim", "distbench":
			return rest
		}
		return ""
	}
	switch pkg {
	case "syscall", "internal/poll", "net", "internal/runtime/syscall", "internal/syscall/unix":
		return "syscall"
	}
	return ""
}

// gcFuncs are the runtime functions under which a sample is garbage-
// collection work, whichever layer's allocation triggered it.
var gcFuncs = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
	"runtime.markrootSpans":     true,
	"runtime.sweepone":          true,
	"runtime.deductSweepCredit": true,
}

// buckets are where CPU time is attributed: the layers, collection, and
// the unattributed rest.
var buckets = []string{"trace", "tracesim", "fsim", "buffercache", "simdisk", "sharedq", "webserver", "vm", "syscall", "netsim", "distbench", "gc", "unattributed"}

// cpuShares attributes every CPU sample to one bucket: "gc" when the
// stack holds a collector function; otherwise the nearest layer to the
// leaf, so runtime and library frames (memclr, mutexes, maps) count
// against the layer that called them; otherwise "unattributed" (the
// scheduler, and the benchmark's own code). The shares sum to 1.
func cpuShares(p *cpuProfile) (map[string]float64, int64) {
	sums := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		bucket := "unattributed"
		st := p.stack(s)
		for _, fn := range st {
			if gcFuncs[fn] {
				bucket = "gc"
				break
			}
		}
		if bucket != "gc" {
			for _, fn := range st {
				if l := layerOf(funcPackage(fn)); l != "" {
					bucket = l
					break
				}
			}
		}
		sums[bucket] += s.value
		total += s.value
	}
	shares := make(map[string]float64)
	for _, b := range buckets {
		shares[b] = 0
		if total > 0 {
			shares[b] = float64(sums[b]) / float64(total)
		}
	}
	if total == 0 {
		shares["unattributed"] = 1
	}
	return shares, int64(len(p.samples))
}
