// Package vm emulates the aspects of the Common Language Infrastructure's
// virtual execution system that shape the paper's measurements. The
// authors ran on the Shared Source CLI (SSCLI/Rotor), whose two
// first-order performance effects on I/O code are:
//
//  1. Just-in-time compilation: a method's first invocation pays a compile
//     cost proportional to its IL size ("functions are compiled only when
//     they are required", §4.2) — the reason the web server's first request
//     is several times slower than later ones.
//  2. Managed wrappers: every call through FileStream/StreamWriter/
//     TcpListener-style classes pays a small dispatch overhead.
//
// Runtime models both with explicit cost parameters charged against a
// clock.Clock: a VirtualClock for deterministic simulation, or RealClock
// to inject genuine delays into live runs. An optional allocation-driven
// garbage-collection pause model rounds out the managed-runtime picture.
package vm

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
)

// Config parameterizes the runtime cost model.
type Config struct {
	// JITEnabled charges first-invocation compile costs when true.
	JITEnabled bool
	// JITBaseCost is the fixed cost of compiling any method.
	JITBaseCost time.Duration
	// JITCostPerILByte scales compile cost with method size.
	JITCostPerILByte time.Duration
	// CallOverhead is the managed-dispatch cost charged on every Invoke.
	CallOverhead time.Duration
	// GCEnabled turns on the allocation-driven collection model.
	GCEnabled bool
	// GCTriggerBytes is how many allocated bytes trigger one collection.
	GCTriggerBytes int64
	// GCPause is the stop-the-world pause charged per collection.
	GCPause time.Duration
}

// DefaultConfig returns costs calibrated to SSCLI's interpreter-grade JIT:
// ~1 ms base compile plus 2 µs per IL byte, 200 ns managed dispatch, and a
// 0.5 ms collection every 4 MB of allocation.
func DefaultConfig() Config {
	return Config{
		JITEnabled:       true,
		JITBaseCost:      time.Millisecond,
		JITCostPerILByte: 2 * time.Microsecond,
		CallOverhead:     200 * time.Nanosecond,
		GCEnabled:        true,
		GCTriggerBytes:   4 << 20,
		GCPause:          500 * time.Microsecond,
	}
}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	switch {
	case c.JITBaseCost < 0 || c.JITCostPerILByte < 0 || c.CallOverhead < 0 || c.GCPause < 0:
		return fmt.Errorf("vm: cost parameters must be non-negative")
	case c.GCEnabled && c.GCTriggerBytes <= 0:
		return fmt.Errorf("vm: GC trigger %d must be positive when GC is enabled", c.GCTriggerBytes)
	}
	return nil
}

// Method is one managed method known to the runtime.
type Method struct {
	Name    string
	ILSize  int // intermediate-language body size in bytes
	jitted  bool
	invokes int64
}

// Invokes returns how many times the method has been called.
func (m *Method) Invokes() int64 { return m.invokes }

// Jitted reports whether the method has been compiled.
func (m *Method) Jitted() bool { return m.jitted }

// Stats aggregates runtime activity.
type Stats struct {
	MethodsJitted int64
	JITTime       time.Duration
	Invokes       int64
	DispatchTime  time.Duration
	BytesAlloc    int64
	Collections   int64
	GCPauseTime   time.Duration
}

// Runtime is the emulated virtual execution system. It is safe for
// concurrent use; the paper's web server invokes it from many threads.
type Runtime struct {
	cfg Config
	clk clock.Clock

	mu        sync.Mutex
	methods   map[string]*Method
	sinceGC   int64
	stats     Stats
	defaultIL int
}

// New builds a runtime charging costs against clk. A nil clk gets a
// dedicated VirtualClock.
func New(cfg Config, clk clock.Clock) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if clk == nil {
		clk = clock.NewVirtualClock(time.Unix(0, 0))
	}
	return &Runtime{
		cfg:       cfg,
		clk:       clk,
		methods:   make(map[string]*Method),
		defaultIL: 256,
	}, nil
}

// MustNew panics on configuration error; for literal wiring.
func MustNew(cfg Config, clk clock.Clock) *Runtime {
	r, err := New(cfg, clk)
	if err != nil {
		panic(err)
	}
	return r
}

// Config returns the runtime configuration.
func (r *Runtime) Config() Config { return r.cfg }

// Clock returns the clock costs are charged against.
func (r *Runtime) Clock() clock.Clock { return r.clk }

// Register declares a method with a known IL size. Registering an already
// known method updates its size but keeps its JIT state.
func (r *Runtime) Register(name string, ilSize int) {
	if ilSize < 0 {
		ilSize = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.methods[name]; ok {
		m.ILSize = ilSize
		return
	}
	r.methods[name] = &Method{Name: name, ILSize: ilSize}
}

// Invoke calls the named method, charging JIT compilation on first call
// plus managed dispatch, and returns the total charged duration. Unknown
// methods are auto-registered with a default IL size — mirroring how the
// CLI lazily loads and compiles whatever the program touches.
func (r *Runtime) Invoke(name string) time.Duration {
	r.mu.Lock()
	m, ok := r.methods[name]
	if !ok {
		m = &Method{Name: name, ILSize: r.defaultIL}
		r.methods[name] = m
	}
	var cost time.Duration
	if r.cfg.JITEnabled && !m.jitted {
		jit := r.cfg.JITBaseCost + time.Duration(m.ILSize)*r.cfg.JITCostPerILByte
		m.jitted = true
		r.stats.MethodsJitted++
		r.stats.JITTime += jit
		cost += jit
	}
	m.invokes++
	r.stats.Invokes++
	r.stats.DispatchTime += r.cfg.CallOverhead
	cost += r.cfg.CallOverhead
	r.mu.Unlock()

	r.clk.Sleep(cost)
	return cost
}

// Allocate charges n bytes of managed allocation, possibly incurring a
// collection pause. It returns the charged duration (zero unless a
// collection ran).
func (r *Runtime) Allocate(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	r.mu.Lock()
	r.stats.BytesAlloc += n
	var cost time.Duration
	if r.cfg.GCEnabled {
		r.sinceGC += n
		for r.sinceGC >= r.cfg.GCTriggerBytes {
			r.sinceGC -= r.cfg.GCTriggerBytes
			r.stats.Collections++
			r.stats.GCPauseTime += r.cfg.GCPause
			cost += r.cfg.GCPause
		}
	}
	r.mu.Unlock()
	if cost > 0 {
		r.clk.Sleep(cost)
	}
	return cost
}

// Method returns the named method, or nil if never registered or invoked.
func (r *Runtime) Method(name string) *Method {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.methods[name]
}

// Stats returns a snapshot of the runtime counters.
func (r *Runtime) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Well-known managed method names with IL sizes approximating the SSCLI
// base class library paths the paper's benchmarks exercise. The sizes are
// only relative weights: constructors and parsers are heavier than
// accessors.
const (
	MethodFileStreamCtor     = "System.IO.FileStream..ctor"
	MethodFileStreamRead     = "System.IO.FileStream.Read"
	MethodFileStreamWrite    = "System.IO.FileStream.Write"
	MethodFileStreamSeek     = "System.IO.FileStream.Seek"
	MethodFileStreamClose    = "System.IO.FileStream.Close"
	MethodStreamWriterCtor   = "System.IO.StreamWriter..ctor"
	MethodStreamWriterWrite  = "System.IO.StreamWriter.Write"
	MethodTcpListenerStart   = "System.Net.Sockets.TcpListener.Start"
	MethodAcceptSocket       = "System.Net.Sockets.TcpListener.AcceptSocket"
	MethodNetworkStreamRead  = "System.Net.Sockets.NetworkStream.Read"
	MethodNetworkStreamWrite = "System.Net.Sockets.NetworkStream.Write"
	MethodThreadStart        = "System.Threading.Thread.Start"
	MethodStringParse        = "System.String.Split"
)

// RegisterBCL registers the base-class-library methods above with their
// approximate IL weights. Call it once on a fresh runtime to make cold
// JIT costs realistic.
func (r *Runtime) RegisterBCL() {
	sizes := map[string]int{
		MethodFileStreamCtor:     1200,
		MethodFileStreamRead:     480,
		MethodFileStreamWrite:    520,
		MethodFileStreamSeek:     180,
		MethodFileStreamClose:    350,
		MethodStreamWriterCtor:   700,
		MethodStreamWriterWrite:  420,
		MethodTcpListenerStart:   650,
		MethodAcceptSocket:       540,
		MethodNetworkStreamRead:  460,
		MethodNetworkStreamWrite: 460,
		MethodThreadStart:        380,
		MethodStringParse:        300,
	}
	for name, il := range sizes {
		r.Register(name, il)
	}
}
