package vm

import (
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

func newRuntime(t *testing.T) *Runtime {
	t.Helper()
	r, err := New(DefaultConfig(), clock.NewVirtualClock(time.Unix(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.JITBaseCost = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative JIT base accepted")
	}
	bad = DefaultConfig()
	bad.GCEnabled = true
	bad.GCTriggerBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero GC trigger accepted with GC enabled")
	}
}

func TestFirstInvokePaysJIT(t *testing.T) {
	r := newRuntime(t)
	r.Register("M", 1000)
	first := r.Invoke("M")
	second := r.Invoke("M")
	if first <= second {
		t.Fatalf("first invoke %v not slower than second %v", first, second)
	}
	wantJIT := DefaultConfig().JITBaseCost + 1000*DefaultConfig().JITCostPerILByte
	if got := first - second; got != wantJIT {
		t.Fatalf("JIT cost = %v, want %v", got, wantJIT)
	}
}

func TestJITOnlyOnce(t *testing.T) {
	r := newRuntime(t)
	r.Register("M", 100)
	for i := 0; i < 10; i++ {
		r.Invoke("M")
	}
	s := r.Stats()
	if s.MethodsJitted != 1 {
		t.Fatalf("MethodsJitted = %d, want 1", s.MethodsJitted)
	}
	if s.Invokes != 10 {
		t.Fatalf("Invokes = %d, want 10", s.Invokes)
	}
	if got := r.Method("M").Invokes(); got != 10 {
		t.Fatalf("method invokes = %d, want 10", got)
	}
}

func TestJITDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JITEnabled = false
	r := MustNew(cfg, clock.NewVirtualClock(time.Unix(0, 0)))
	r.Register("M", 10000)
	first := r.Invoke("M")
	if first != cfg.CallOverhead {
		t.Fatalf("invoke with JIT off = %v, want bare dispatch %v", first, cfg.CallOverhead)
	}
}

func TestUnknownMethodAutoRegistered(t *testing.T) {
	r := newRuntime(t)
	dur := r.Invoke("Surprise.Method")
	if dur <= DefaultConfig().CallOverhead {
		t.Fatalf("auto-registered method paid no JIT: %v", dur)
	}
	if r.Method("Surprise.Method") == nil {
		t.Fatal("method not registered after invoke")
	}
}

func TestJITCostScalesWithILSize(t *testing.T) {
	r := newRuntime(t)
	r.Register("small", 10)
	r.Register("big", 10000)
	smallJIT := r.Invoke("small")
	bigJIT := r.Invoke("big")
	if bigJIT <= smallJIT {
		t.Fatalf("big method JIT %v not slower than small %v", bigJIT, smallJIT)
	}
}

func TestInvokeAdvancesClock(t *testing.T) {
	clk := clock.NewVirtualClock(time.Unix(0, 0))
	r := MustNew(DefaultConfig(), clk)
	before := clk.Now()
	dur := r.Invoke("M")
	if got := clk.Now().Sub(before); got != dur {
		t.Fatalf("clock advanced %v, invoke charged %v", got, dur)
	}
}

func TestAllocateTriggersGC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GCTriggerBytes = 1024
	cfg.GCPause = time.Millisecond
	r := MustNew(cfg, clock.NewVirtualClock(time.Unix(0, 0)))
	if pause := r.Allocate(512); pause != 0 {
		t.Fatalf("sub-threshold alloc paused %v", pause)
	}
	if pause := r.Allocate(512); pause != time.Millisecond {
		t.Fatalf("threshold alloc pause = %v, want 1ms", pause)
	}
	if got := r.Stats().Collections; got != 1 {
		t.Fatalf("Collections = %d, want 1", got)
	}
	// A huge allocation triggers multiple collections.
	if pause := r.Allocate(4096); pause != 4*time.Millisecond {
		t.Fatalf("4-trigger alloc pause = %v, want 4ms", pause)
	}
}

func TestAllocateGCDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GCEnabled = false
	r := MustNew(cfg, clock.NewVirtualClock(time.Unix(0, 0)))
	if pause := r.Allocate(1 << 30); pause != 0 {
		t.Fatalf("GC-off alloc paused %v", pause)
	}
	if r.Stats().BytesAlloc != 1<<30 {
		t.Fatal("allocation not counted with GC off")
	}
}

func TestAllocateNonPositive(t *testing.T) {
	r := newRuntime(t)
	if r.Allocate(0) != 0 || r.Allocate(-5) != 0 {
		t.Fatal("non-positive allocations must be free")
	}
	if r.Stats().BytesAlloc != 0 {
		t.Fatal("non-positive allocations counted")
	}
}

func TestRegisterBCL(t *testing.T) {
	r := newRuntime(t)
	r.RegisterBCL()
	for _, name := range []string{
		MethodFileStreamCtor, MethodFileStreamRead, MethodFileStreamWrite,
		MethodFileStreamSeek, MethodFileStreamClose, MethodStreamWriterCtor,
		MethodStreamWriterWrite, MethodTcpListenerStart, MethodAcceptSocket,
		MethodNetworkStreamRead, MethodNetworkStreamWrite, MethodThreadStart,
		MethodStringParse,
	} {
		if m := r.Method(name); m == nil || m.ILSize == 0 || m.Jitted() {
			t.Errorf("%s: registered as %+v, want a cold method with an IL size", name, m)
		}
	}
}

func TestRegisterKeepsJITStateOnResize(t *testing.T) {
	r := newRuntime(t)
	r.Register("M", 100)
	r.Invoke("M") // jit it
	r.Register("M", 200)
	if !r.Method("M").Jitted() {
		t.Fatal("re-register cleared JIT state")
	}
	if r.Method("M").ILSize != 200 {
		t.Fatal("re-register did not update size")
	}
}

func TestConcurrentInvokeSafe(t *testing.T) {
	r := newRuntime(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Invoke("Shared.Method")
				r.Allocate(100)
			}
		}()
	}
	wg.Wait()
	s := r.Stats()
	if s.Invokes != 800 {
		t.Fatalf("Invokes = %d, want 800", s.Invokes)
	}
	if s.MethodsJitted != 1 {
		t.Fatalf("MethodsJitted = %d, want 1 despite concurrency", s.MethodsJitted)
	}
}

func TestNilClockGetsVirtual(t *testing.T) {
	r, err := New(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Clock() == nil {
		t.Fatal("nil clock not defaulted")
	}
	r.Invoke("M") // must not panic
}
