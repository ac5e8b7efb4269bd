package simdisk

import (
	"testing"
	"time"
)

var faultEpoch = time.Unix(0, 0)

// TestFaultPlanValidate pins the plan-level gating: RAID0 accepts only
// slowdowns (no redundancy to absorb lost data), member indexes must be
// in range, and each kind's parameters are checked.
func TestFaultPlanValidate(t *testing.T) {
	slow := Fault{Disk: 0, Kind: FaultSlowdown, Penalty: time.Millisecond}
	media := Fault{Disk: 0, Kind: FaultMedia, Offset: 0, Length: 4096}
	dead := Fault{Disk: 0, Kind: FaultDevice}
	cases := []struct {
		name  string
		plan  FaultPlan
		n     int
		level Level
		ok    bool
	}{
		{"slow on RAID0", FaultPlan{Faults: []Fault{slow}}, 2, RAID0, true},
		{"media on RAID0", FaultPlan{Faults: []Fault{media}}, 2, RAID0, false},
		{"device on RAID0", FaultPlan{Faults: []Fault{dead}}, 2, RAID0, false},
		{"device on RAID1", FaultPlan{Faults: []Fault{dead}}, 2, RAID1, true},
		{"media on RAID5", FaultPlan{Faults: []Fault{media}}, 3, RAID5, true},
		{"disk out of range", FaultPlan{Faults: []Fault{{Disk: 3, Kind: FaultDevice}}}, 3, RAID5, false},
		{"negative activation", FaultPlan{Faults: []Fault{{Disk: 0, Kind: FaultDevice, At: -time.Second}}}, 2, RAID1, false},
		{"slowdown without penalty", FaultPlan{Faults: []Fault{{Disk: 0, Kind: FaultSlowdown}}}, 2, RAID1, false},
		{"media without length", FaultPlan{Faults: []Fault{{Disk: 0, Kind: FaultMedia}}}, 3, RAID5, false},
	}
	for _, tc := range cases {
		err := tc.plan.Validate(tc.n, tc.level)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

// TestSlowdownInflatesService pins the slowdown billing: while active,
// each request's service time grows by exactly the penalty (charged as
// SlowdownTime); before activation and after Until it does not.
func TestSlowdownInflatesService(t *testing.T) {
	p := MemoryBackedParams()
	req := Request{Offset: 0, Length: 4096}

	healthy := MustNew(p)
	_, base := healthy.Access(faultEpoch, req)

	const pen = 250 * time.Microsecond
	d := MustNew(p)
	if err := d.InjectFault(faultEpoch, Fault{Disk: 0, Kind: FaultSlowdown, At: 0, Until: time.Second, Penalty: pen}); err != nil {
		t.Fatal(err)
	}
	if _, svc := d.Access(faultEpoch, req); svc != base+pen {
		t.Fatalf("active slowdown: service %v, want %v + %v", svc, base, pen)
	}
	if got := d.Stats().SlowdownTime; got != pen {
		t.Fatalf("SlowdownTime %v, want %v", got, pen)
	}

	// After Until the penalty lifts; the head is back at the same offset
	// so the motion cost matches the healthy second access.
	healthy.Access(faultEpoch.Add(2*time.Second), req)
	_, svc := d.Access(faultEpoch.Add(2*time.Second), req)
	healthy2 := MustNew(p)
	healthy2.Access(faultEpoch, req)
	_, want := healthy2.Access(faultEpoch.Add(2*time.Second), req)
	if svc != want {
		t.Fatalf("expired slowdown: service %v, want %v", svc, want)
	}

	// A fault scheduled in the future leaves earlier accesses untouched.
	future := MustNew(p)
	if err := future.InjectFault(faultEpoch, Fault{Disk: 0, Kind: FaultSlowdown, At: time.Hour, Penalty: pen}); err != nil {
		t.Fatal(err)
	}
	if _, svc := future.Access(faultEpoch, req); svc != base {
		t.Fatalf("future slowdown: service %v, want healthy %v", svc, base)
	}
}

// TestRAID1DegradedRead pins mirror failover: with the rotation-chosen
// member dead, the read fails over to the surviving mirror at the same
// start time and completes exactly when the healthy array's read (which
// lands on an identical fresh disk) would — the dead device bills
// nothing. The survivor's DegradedReads counts the failover.
func TestRAID1DegradedRead(t *testing.T) {
	p := MemoryBackedParams()
	su := int64(64 << 10)
	req := Request{Offset: 0, Length: 4096} // rotation picks member 0

	healthy, err := NewArrayLevel(2, su, RAID1, p)
	if err != nil {
		t.Fatal(err)
	}
	wantDone, _ := healthy.Access(faultEpoch, req)

	degraded, err := NewArrayLevel(2, su, RAID1, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := degraded.ApplyFaultPlan(faultEpoch, &FaultPlan{Faults: []Fault{{Disk: 0, Kind: FaultDevice, At: 0}}}); err != nil {
		t.Fatal(err)
	}
	done, _ := degraded.Access(faultEpoch, req)
	if !done.Equal(wantDone) {
		t.Fatalf("degraded read done %v, want healthy %v", done, wantDone)
	}
	st := degraded.TotalStats()
	if st.DegradedReads != 1 {
		t.Fatalf("DegradedReads %d, want 1", st.DegradedReads)
	}
	if st.Unrecoverable != 0 {
		t.Fatalf("Unrecoverable %d, want 0", st.Unrecoverable)
	}
	if got := degraded.Disk(0).Stats().Reads; got != 0 {
		t.Fatalf("dead member served %d reads, want 0", got)
	}
}

// TestRAID1MediaErrorBillsFailedAttempt pins the media-error model: the
// poisoned member spends the full mechanical motion before the error
// surfaces, and the failover read chains after that attempt — strictly
// slower than the healthy read.
func TestRAID1MediaErrorBillsFailedAttempt(t *testing.T) {
	p := MemoryBackedParams()
	su := int64(64 << 10)
	req := Request{Offset: 0, Length: 4096}

	healthy, _ := NewArrayLevel(2, su, RAID1, p)
	wantDone, _ := healthy.Access(faultEpoch, req)

	degraded, _ := NewArrayLevel(2, su, RAID1, p)
	if err := degraded.ApplyFaultPlan(faultEpoch, &FaultPlan{Faults: []Fault{
		{Disk: 0, Kind: FaultMedia, At: 0, Offset: 0, Length: 1 << 20},
	}}); err != nil {
		t.Fatal(err)
	}
	done, _ := degraded.Access(faultEpoch, req)
	if !done.After(wantDone) {
		t.Fatalf("media failover done %v, want after healthy %v", done, wantDone)
	}
	st := degraded.TotalStats()
	if st.MediaErrors != 1 {
		t.Fatalf("MediaErrors %d, want 1", st.MediaErrors)
	}
	if st.DegradedReads != 1 {
		t.Fatalf("DegradedReads %d, want 1", st.DegradedReads)
	}
	// Writes are unaffected: drives remap on write.
	if _, elapsed := degraded.Access(done, Request{Offset: 0, Length: 4096, Write: true}); elapsed <= 0 {
		t.Fatalf("write through media fault should succeed")
	}
	if got := degraded.TotalStats().Unrecoverable; got != 0 {
		t.Fatalf("Unrecoverable %d, want 0", got)
	}
}

// TestRAID5DegradedReadReconstructs pins parity reconstruction: with the
// block's data member dead, the read issues the same physical range to
// both survivors concurrently and completes with the slower of them —
// on fresh identical disks, exactly the healthy single-member read time.
func TestRAID5DegradedReadReconstructs(t *testing.T) {
	p := MemoryBackedParams()
	su := int64(64 << 10)
	// Offset 0: stripe 0, row 0, parity on disk 0, data on disk 1.
	req := Request{Offset: 0, Length: 4096}

	healthy, _ := NewArrayLevel(3, su, RAID5, p)
	wantDone, _ := healthy.Access(faultEpoch, req)

	degraded, _ := NewArrayLevel(3, su, RAID5, p)
	if err := degraded.ApplyFaultPlan(faultEpoch, &FaultPlan{Faults: []Fault{{Disk: 1, Kind: FaultDevice, At: 0}}}); err != nil {
		t.Fatal(err)
	}
	done, _ := degraded.Access(faultEpoch, req)
	if !done.Equal(wantDone) {
		t.Fatalf("reconstructed read done %v, want %v", done, wantDone)
	}
	st := degraded.TotalStats()
	if st.ReconstructReads != 2 {
		t.Fatalf("ReconstructReads %d, want 2 (both survivors)", st.ReconstructReads)
	}
	if st.Unrecoverable != 0 {
		t.Fatalf("Unrecoverable %d, want 0", st.Unrecoverable)
	}

	// Degraded write to the dead member's block: survivors absorb it via
	// parity; nothing is unrecoverable.
	degraded.Access(done, Request{Offset: 0, Length: 4096, Write: true})
	if got := degraded.TotalStats().Unrecoverable; got != 0 {
		t.Fatalf("degraded write Unrecoverable %d, want 0", got)
	}
}

// TestRAID5DoubleFaultUnrecoverable pins the double-failure accounting:
// with two dead members, a read of a lost block cannot reconstruct and
// counts Unrecoverable.
func TestRAID5DoubleFaultUnrecoverable(t *testing.T) {
	p := MemoryBackedParams()
	su := int64(64 << 10)
	degraded, _ := NewArrayLevel(3, su, RAID5, p)
	if err := degraded.ApplyFaultPlan(faultEpoch, &FaultPlan{Faults: []Fault{
		{Disk: 1, Kind: FaultDevice, At: 0},
		{Disk: 2, Kind: FaultDevice, At: 0},
	}}); err != nil {
		t.Fatal(err)
	}
	degraded.Access(faultEpoch, Request{Offset: 0, Length: 4096})
	if got := degraded.TotalStats().Unrecoverable; got == 0 {
		t.Fatalf("double fault should count Unrecoverable")
	}
}

// TestHealthyPathUnchangedByPlan pins the byte-identity guarantee the
// whole fault layer rests on: an array whose plan never activates (all
// faults in the far future) times a request stream identically to an
// array with no plan at all, at every level.
func TestHealthyPathUnchangedByPlan(t *testing.T) {
	p := MemoryBackedParams()
	su := int64(64 << 10)
	plan := &FaultPlan{Faults: []Fault{
		{Disk: 0, Kind: FaultSlowdown, At: time.Hour, Penalty: time.Millisecond},
		{Disk: 1, Kind: FaultMedia, At: time.Hour, Offset: 0, Length: 1 << 20},
		{Disk: 1, Kind: FaultDevice, At: time.Hour},
	}}
	for _, level := range []Level{RAID1, RAID5} {
		n := 2
		if level == RAID5 {
			n = 3
		}
		bare, _ := NewArrayLevel(n, su, level, p)
		planned, _ := NewArrayLevel(n, su, level, p)
		if err := planned.ApplyFaultPlan(faultEpoch, plan); err != nil {
			t.Fatal(err)
		}
		now := faultEpoch
		for i := int64(0); i < 32; i++ {
			req := Request{Offset: i * 4096, Length: 4096, Write: i%3 == 0}
			d1, e1 := bare.Access(now, req)
			d2, e2 := planned.Access(now, req)
			if !d1.Equal(d2) || e1 != e2 {
				t.Fatalf("%v req %d: planned array diverged: (%v,%v) vs (%v,%v)", level, i, d2, e2, d1, e1)
			}
			now = now.Add(100 * time.Microsecond)
		}
		if bs, ps := bare.TotalStats(), planned.TotalStats(); bs != ps {
			t.Fatalf("%v: stats diverged: %+v vs %+v", level, ps, bs)
		}
	}
}

// TestRebuildRowsAndFinish pins the rebuild geometry and promotion: the
// row count covers the used extent at each level, every row lands one
// spare write, and after Finish the member serves reads again with no
// reconstruction traffic.
func TestRebuildRowsAndFinish(t *testing.T) {
	p := MemoryBackedParams()
	su := int64(64 << 10)

	cases := []struct {
		level Level
		n     int
		used  int64
		rows  int64
	}{
		{RAID1, 2, 4 * su, 4},
		{RAID1, 2, 4*su + 1, 5},
		{RAID5, 3, 4 * su, 2}, // 4 stripes over 2 data disks
		{RAID5, 4, 7 * su, 3}, // ceil(7/3)
		{RAID5, 3, 5 * su, 3}, // ceil(5/2)
	}
	for _, tc := range cases {
		a, err := NewArrayLevel(tc.n, su, tc.level, p)
		if err != nil {
			t.Fatal(err)
		}
		const failed = 1
		if err := a.ApplyFaultPlan(faultEpoch, &FaultPlan{Faults: []Fault{{Disk: failed, Kind: FaultDevice, At: 0}}}); err != nil {
			t.Fatal(err)
		}
		rb, err := a.NewRebuild(failed, tc.used)
		if err != nil {
			t.Fatal(err)
		}
		if rb.Rows() != tc.rows {
			t.Fatalf("%v n=%d used=%d: rows %d, want %d", tc.level, tc.n, tc.used, rb.Rows(), tc.rows)
		}
		if err := rb.Finish(); err == nil {
			t.Fatalf("Finish before completion should error")
		}
		end := faultEpoch
		for next, ok := rb.Step(end, a); ok; next, ok = rb.Step(end, a) {
			end = next
		}
		if !rb.Done() {
			t.Fatalf("rebuild not done after its last Step")
		}
		if !end.After(faultEpoch) {
			t.Fatalf("rebuild consumed no simulated time")
		}
		if got := rb.Spare().Stats().RebuildWrites; got != tc.rows {
			t.Fatalf("spare RebuildWrites %d, want %d", got, tc.rows)
		}
		if err := rb.Finish(); err != nil {
			t.Fatal(err)
		}
		if a.Disk(failed).Failed(end) {
			t.Fatalf("member still failed after Finish")
		}
		// A read of the rebuilt member's block is served healthy: no new
		// reconstruction or failover traffic.
		before := a.TotalStats()
		var req Request
		if tc.level == RAID1 {
			req = Request{Offset: su, Length: 4096} // stripe 1: rotation picks member 1
		} else {
			req = Request{Offset: 0, Length: 4096} // row 0: parity disk 0, data disk 1
		}
		a.Access(end, req)
		after := a.TotalStats()
		if after.DegradedReads != before.DegradedReads || after.ReconstructReads != before.ReconstructReads {
			t.Fatalf("%v: read after Finish still degraded: %+v -> %+v", tc.level, before, after)
		}
		// The spare's stats were folded into the member: total rebuild
		// writes are preserved array-wide.
		if after.RebuildWrites != tc.rows {
			t.Fatalf("RebuildWrites %d after Finish, want %d", after.RebuildWrites, tc.rows)
		}
	}
}

// TestRebuildRejectsRAID0 pins that a stripe-only array cannot rebuild.
func TestRebuildRejectsRAID0(t *testing.T) {
	a := MustNewArray(2, 64<<10, MemoryBackedParams())
	if _, err := a.NewRebuild(0, 1<<20); err == nil {
		t.Fatalf("RAID0 rebuild should be rejected")
	}
}

// TestFaultedAccessDeterministic replays the same request stream against
// two identically-faulted arrays and requires bit-identical completion
// times and statistics — the device-level half of the replay-determinism
// guarantee.
func TestFaultedAccessDeterministic(t *testing.T) {
	p := MemoryBackedParams()
	su := int64(64 << 10)
	plan := &FaultPlan{Faults: []Fault{
		{Disk: 0, Kind: FaultSlowdown, At: 0, Until: 10 * time.Millisecond, Penalty: 100 * time.Microsecond},
		{Disk: 1, Kind: FaultDevice, At: 2 * time.Millisecond},
		{Disk: 2, Kind: FaultMedia, At: 0, Offset: 0, Length: 256 << 10},
	}}
	run := func() ([]time.Time, Stats) {
		a, _ := NewArrayLevel(3, su, RAID5, p)
		if err := a.ApplyFaultPlan(faultEpoch, plan); err != nil {
			t.Fatal(err)
		}
		var dones []time.Time
		now := faultEpoch
		for i := int64(0); i < 64; i++ {
			req := Request{Offset: (i * 7 % 32) * 4096, Length: 4096, Write: i%5 == 0}
			done, _ := a.Access(now, req)
			dones = append(dones, done)
			now = now.Add(50 * time.Microsecond)
		}
		return dones, a.TotalStats()
	}
	d1, s1 := run()
	d2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	for i := range d1 {
		if !d1[i].Equal(d2[i]) {
			t.Fatalf("request %d done diverged: %v vs %v", i, d1[i], d2[i])
		}
	}
}

// TestParseFaultPlan pins the flag grammar and its round trip.
func TestParseFaultPlan(t *testing.T) {
	plan, err := ParseFaultPlan("fail:1@0s,slow:0@1ms+200µs..5ms,media:2@0s:4096+8192")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Disk: 1, Kind: FaultDevice},
		{Disk: 0, Kind: FaultSlowdown, At: time.Millisecond, Penalty: 200 * time.Microsecond, Until: 5 * time.Millisecond},
		{Disk: 2, Kind: FaultMedia, Offset: 4096, Length: 8192},
	}
	if len(plan.Faults) != len(want) {
		t.Fatalf("parsed %d faults, want %d", len(plan.Faults), len(want))
	}
	for i := range want {
		if plan.Faults[i] != want[i] {
			t.Fatalf("fault %d = %+v, want %+v", i, plan.Faults[i], want[i])
		}
	}
	round, err := ParseFaultPlan(plan.String())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	for i := range want {
		if round.Faults[i] != want[i] {
			t.Fatalf("round-trip fault %d = %+v, want %+v", i, round.Faults[i], want[i])
		}
	}
	if p, err := ParseFaultPlan(""); err != nil || p != nil {
		t.Fatalf("empty plan = %v, %v; want nil, nil", p, err)
	}
	for _, bad := range []string{"boom:0@0s", "slow:0@0s", "media:1@0s:10", "fail:x@0s", "fail:0"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q) should error", bad)
		}
	}
}
