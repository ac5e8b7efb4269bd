package fsim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/simdisk"
)

// TestRetryBackoffBilling pins the recovery arithmetic end to end with a
// hand-computed schedule: Rate=1 fires on every roll, Budget=2 allows
// exactly two faults, and Retry{Max:3, Base:1ms} absorbs them — the op
// recovers on its third attempt after backoffs of 1ms and 2ms, so its
// duration is the healthy cost plus exactly 3ms of simulated backoff.
func TestRetryBackoffBilling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Inject = InjectSpec{Seed: 7, Rate: 1, Budget: 2}
	cfg.Retry = RetryPolicy{Max: 3, Base: time.Millisecond}
	store := MustNewFileStore(cfg)
	if _, err := store.Create("f", nil); err != nil {
		t.Fatal(err)
	}

	sess := store.NewSession()
	defer sess.Release()
	_, dur, err := sess.Stat("f")
	if err != nil {
		t.Fatalf("recovered op returned error: %v", err)
	}
	want := cfg.OpenCost + 1*time.Millisecond + 2*time.Millisecond
	if dur != want {
		t.Fatalf("recovered Stat duration %v, want %v (OpenCost + 1ms + 2ms)", dur, want)
	}
	rec := sess.Recovery()
	if rec != (RecoveryStats{Injected: 2, Retried: 2, Recovered: 1}) {
		t.Fatalf("recovery stats %+v, want Injected=2 Retried=2 Recovered=1", rec)
	}

	// The budget is spent: the next op is healthy and bills no backoff.
	_, dur, err = sess.Stat("f")
	if err != nil || dur != cfg.OpenCost {
		t.Fatalf("post-budget Stat = (%v, %v), want (%v, nil)", dur, err, cfg.OpenCost)
	}
}

// TestRetryExhaustionFails pins the give-up path: with an unlimited
// budget and Rate=1, every retry faults again, so after Max retries the
// op fails with a typed transient FaultError — and the spent backoff is
// still billed on the lane.
func TestRetryExhaustionFails(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Inject = InjectSpec{Seed: 1, Rate: 1}
	cfg.Retry = RetryPolicy{Max: 2, Base: time.Millisecond}
	store := MustNewFileStore(cfg)
	if _, err := store.Create("f", nil); err != nil {
		t.Fatal(err)
	}

	sess := store.NewSession()
	defer sess.Release()
	before := sess.Clock().Now()
	_, dur, err := sess.Stat("f")
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Permanent {
		t.Fatalf("want transient *FaultError, got %v", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("FaultError should unwrap to ErrInjected")
	}
	want := 1*time.Millisecond + 2*time.Millisecond
	if dur != want {
		t.Fatalf("failed Stat duration %v, want %v (two backoffs, no body)", dur, want)
	}
	if got := sess.Clock().Now().Sub(before); got != want {
		t.Fatalf("lane advanced %v, want %v", got, want)
	}
	rec := sess.Recovery()
	if rec != (RecoveryStats{Injected: 3, Retried: 2, Failed: 1}) {
		t.Fatalf("recovery stats %+v, want Injected=3 Retried=2 Failed=1", rec)
	}
}

// TestPermanentFaultSkipsRetries pins that a permanent fault fails
// immediately, whatever the retry policy allows.
func TestPermanentFaultSkipsRetries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Inject = InjectSpec{Seed: 3, Rate: 1, Permanent: 1, Budget: 1}
	cfg.Retry = RetryPolicy{Max: 5, Base: time.Millisecond}
	store := MustNewFileStore(cfg)
	if _, err := store.Create("f", nil); err != nil {
		t.Fatal(err)
	}

	sess := store.NewSession()
	defer sess.Release()
	_, dur, err := sess.Stat("f")
	var fe *FaultError
	if !errors.As(err, &fe) || !fe.Permanent {
		t.Fatalf("want permanent *FaultError, got %v", err)
	}
	if dur != 0 {
		t.Fatalf("permanent fault billed %v, want 0 (no retries attempted)", dur)
	}
	if rec := sess.Recovery(); rec != (RecoveryStats{Injected: 1, Failed: 1}) {
		t.Fatalf("recovery stats %+v, want Injected=1 Failed=1", rec)
	}
}

// TestDefaultSessionNeverInjects pins that provisioning traffic through
// the store's default lane stays clean even under Rate=1 injection.
func TestDefaultSessionNeverInjects(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Inject = InjectSpec{Seed: 9, Rate: 1}
	store := MustNewFileStore(cfg)
	for i := 0; i < 8; i++ {
		if _, err := store.Create("f", []byte("x")); err != nil {
			t.Fatalf("default-lane create %d: %v", i, err)
		}
		if _, _, err := store.Stat("f"); err != nil {
			t.Fatalf("default-lane stat %d: %v", i, err)
		}
	}
	if rec := store.RecoveryStats(); rec.Any() {
		t.Fatalf("default lane injected: %+v", rec)
	}
}

// TestReleaseFoldsRecoveryStats pins that a released session's tally
// survives in the store aggregate.
func TestReleaseFoldsRecoveryStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Inject = InjectSpec{Seed: 7, Rate: 1, Budget: 1}
	cfg.Retry = RetryPolicy{Max: 1, Base: time.Microsecond}
	store := MustNewFileStore(cfg)
	if _, err := store.Create("f", nil); err != nil {
		t.Fatal(err)
	}
	sess := store.NewSession()
	if _, _, err := sess.Stat("f"); err != nil {
		t.Fatal(err)
	}
	want := sess.Recovery()
	if !want.Any() {
		t.Fatalf("expected injection before release")
	}
	sess.Release()
	if got := store.RecoveryStats(); got != want {
		t.Fatalf("store recovery %+v after release, want %+v", got, want)
	}
}

// TestSessionInjectOpMask pins per-op-type targeting of session
// injection: with a write-only mask and Rate=1, stats never fault while
// every write does.
func TestSessionInjectOpMask(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Inject = InjectSpec{Seed: 42, Rate: 1, Ops: MaskOf(OpWrite)}
	store := MustNewFileStore(cfg)
	if _, err := store.Create("f", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	sess := store.NewSession()
	defer sess.Release()
	for i := 0; i < 50; i++ {
		if _, _, err := sess.Stat("f"); err != nil {
			t.Fatalf("write-masked session failed a stat: %v", err)
		}
	}
	f, _, err := sess.Open("f")
	if err != nil {
		t.Fatalf("write-masked session failed an open: %v", err)
	}
	defer f.Close()
	if _, _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write-masked session write err = %v, want ErrInjected", err)
	}
}

// TestStoreRebuild pins the store-level rebuild driver in private-view
// mode: a dead RAID5 member is reconstructed from the store's used
// extent and promoted, after which the member serves again.
func TestStoreRebuild(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Disks = 3
	cfg.RAIDLevel = simdisk.RAID5
	cfg.Faults = &simdisk.FaultPlan{Faults: []simdisk.Fault{{Disk: 1, Kind: simdisk.FaultDevice, At: 0}}}
	store := MustNewFileStore(cfg)
	if _, err := store.CreateSized("big", 1<<20); err != nil {
		t.Fatal(err)
	}

	rb, err := store.BeginRebuilds([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Rows() <= 0 {
		t.Fatalf("rebuild covers %d rows, want > 0", rb.Rows())
	}
	end := rb.Run()
	if err := rb.Finish(); err != nil {
		t.Fatal(err)
	}
	if m := rb.Members(); len(m) != 1 || m[0].Member != 1 || m[0].Writes != rb.Rows() {
		t.Fatalf("members %+v, want one member 1 with Writes == Rows %d", m, rb.Rows())
	}
	if store.Array().Disk(1).Failed(end) {
		t.Fatalf("member still failed after Finish")
	}
	if got := store.TotalDiskStats().RebuildWrites; got != rb.Rows() {
		t.Fatalf("TotalDiskStats RebuildWrites %d, want %d", got, rb.Rows())
	}
}

// TestParseSpecs pins the flag grammars.
func TestParseSpecs(t *testing.T) {
	spec, err := ParseInjectSpec("seed=7,rate=40,budget=4,perm=100,ops=read|write")
	if err != nil {
		t.Fatal(err)
	}
	want := InjectSpec{Seed: 7, Rate: 40, Permanent: 100, Budget: 4, Ops: MaskOf(OpRead, OpWrite)}
	if spec != want {
		t.Fatalf("ParseInjectSpec = %+v, want %+v", spec, want)
	}
	if !spec.Ops.Has(OpRead) || spec.Ops.Has(OpStat) {
		t.Fatalf("mask targeting wrong: %b", spec.Ops)
	}
	if _, err := ParseInjectSpec("rate=x"); err == nil {
		t.Fatalf("bad rate should error")
	}
	if _, err := ParseInjectSpec("ops=nope"); err == nil {
		t.Fatalf("bad op name should error")
	}

	rp, err := ParseRetrySpec("max=3,base=50us")
	if err != nil {
		t.Fatal(err)
	}
	if rp != (RetryPolicy{Max: 3, Base: 50 * time.Microsecond}) {
		t.Fatalf("ParseRetrySpec = %+v", rp)
	}
	if zero, err := ParseRetrySpec(""); err != nil || zero != (RetryPolicy{}) {
		t.Fatalf("empty retry spec = %+v, %v", zero, err)
	}
}
