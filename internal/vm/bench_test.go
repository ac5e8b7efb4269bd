package vm

import (
	"testing"
	"time"

	"repro/internal/clock"
)

func BenchmarkInvokeWarm(b *testing.B) {
	rt := MustNew(DefaultConfig(), clock.NewVirtualClock(time.Unix(0, 0)))
	rt.Register("M", 100)
	rt.Invoke("M") // jit
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Invoke("M")
	}
}

// BenchmarkInvokeColdJIT times a first invoke: each iteration builds a
// fresh runtime with the timer stopped, so only the JIT-paying call is
// measured.
func BenchmarkInvokeColdJIT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rt := MustNew(DefaultConfig(), clock.NewVirtualClock(time.Unix(0, 0)))
		rt.Register("M", 100)
		b.StartTimer()
		rt.Invoke("M")
	}
}

func BenchmarkAllocate(b *testing.B) {
	rt := MustNew(DefaultConfig(), clock.NewVirtualClock(time.Unix(0, 0)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Allocate(1024)
	}
}
