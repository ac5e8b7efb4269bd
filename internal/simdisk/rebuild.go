package simdisk

import (
	"fmt"
	"time"
)

// ApplyFaultPlan validates plan against the array's geometry and level,
// then schedules every fault on its member disk. Activation offsets are
// measured from epoch — the virtual time the caller's clocks started at
// — so the same plan on identical arrays replays bit-identically. A nil
// plan is a no-op. Media and device faults are rejected on RAID0, which
// has no redundancy to absorb them (FaultPlan.Validate).
func (a *Array) ApplyFaultPlan(epoch time.Time, plan *FaultPlan) error {
	if plan == nil {
		return nil
	}
	if err := plan.Validate(len(a.disks), a.level); err != nil {
		return err
	}
	for _, f := range plan.Faults {
		if err := a.disks[f.Disk].InjectFault(epoch, f); err != nil {
			return err
		}
	}
	return nil
}

// Rebuild reconstructs one member's contents onto a fresh spare, block
// by block. Each Step issues one logical read covering the lost block
// through a Port (the *Array itself for private disk views, or a
// shared-queue lane, so rebuild reads contend with foreground requests
// under the same event-merged dispatch). On a degraded array the read
// itself performs the failover (RAID1) or parity reconstruction (RAID5),
// billing the survivor traffic; then the block is written onto the
// spare, chained after the read completes. When every block has been copied, Finish
// folds the spare into the dead member: its fault state clears, its
// head and busy horizon adopt the spare's, and the spare's statistics
// (including RebuildWrites) merge into the member's, so TotalStats
// loses nothing.
//
// Steps must not run concurrently with each other; they may run
// concurrently with foreground array traffic (that contention is the
// point). Finish is safe under concurrent traffic — it mutates the
// member under its own lock — but a mid-run promotion makes the
// heal time wall-clock-dependent, so deterministic harnesses call it
// only after foreground lanes quiesce.
type Rebuild struct {
	a      *Array
	failed int
	spare  *Disk
	rows   int64 // stripe-unit blocks to reconstruct
	next   int64
	done   bool
}

// NewRebuild prepares a rebuild of member failed covering the first
// usedLogical bytes of the logical address space (the extent high-water
// mark; everything past it was never written, so a fresh spare is
// already correct there). The array must be redundant — RAID0 has
// nothing to reconstruct from.
func (a *Array) NewRebuild(failed int, usedLogical int64) (*Rebuild, error) {
	return a.newRebuild(failed, usedLogical, nil)
}

// NewRebuildOnto is NewRebuild targeting a caller-provided spare disk —
// typically one claimed from a SparePool — instead of an ad-hoc fresh
// spare. The spare must be unused; its statistics and mechanical state
// fold into the rebuilt member at Finish exactly as NewRebuild's do.
func (a *Array) NewRebuildOnto(failed int, usedLogical int64, spare *Disk) (*Rebuild, error) {
	if spare == nil {
		return nil, fmt.Errorf("simdisk: rebuild needs a spare disk")
	}
	return a.newRebuild(failed, usedLogical, spare)
}

func (a *Array) newRebuild(failed int, usedLogical int64, spare *Disk) (*Rebuild, error) {
	if a.level == RAID0 {
		return nil, fmt.Errorf("simdisk: RAID0 has no redundancy to rebuild from")
	}
	if failed < 0 || failed >= len(a.disks) {
		return nil, fmt.Errorf("simdisk: rebuild member %d out of range [0,%d)", failed, len(a.disks))
	}
	if usedLogical < 0 {
		usedLogical = 0
	}
	if cap := a.usableCapacity(); usedLogical > cap {
		usedLogical = cap
	}
	usedStripes := (usedLogical + a.stripeUnit - 1) / a.stripeUnit
	rows := usedStripes // RAID1: one member row per logical stripe
	if a.level == RAID5 {
		dataDisks := int64(len(a.disks) - 1)
		rows = (usedStripes + dataDisks - 1) / dataDisks
	}
	if spare == nil {
		spare = MustNew(a.disks[failed].params)
	}
	return &Rebuild{a: a, failed: failed, spare: spare, rows: rows}, nil
}

// Rows returns the total number of stripe-unit blocks the rebuild
// covers.
func (r *Rebuild) Rows() int64 { return r.rows }

// Remaining returns how many blocks are still to be copied.
func (r *Rebuild) Remaining() int64 { return r.rows - r.next }

// Done reports whether every block has been copied.
func (r *Rebuild) Done() bool { return r.next >= r.rows }

// Spare exposes the spare disk (for stats inspection before Finish).
func (r *Rebuild) Spare() *Disk { return r.spare }

// Step reconstructs the next block: a logical read through port that
// covers the lost physical block (the degraded array reads survivors
// and bills them), then the block's write onto the spare, chained after
// the read. It returns the write's completion time and false once no
// blocks remain (then done == now).
func (r *Rebuild) Step(now time.Time, port Port) (done time.Time, ok bool) {
	if r.next >= r.rows {
		return now, false
	}
	a := r.a
	row := r.next
	var logOff, logLen int64
	switch a.level {
	case RAID1:
		// Mirrors hold the logical space verbatim: member row == logical
		// stripe.
		logOff, logLen = row*a.stripeUnit, a.stripeUnit
	default: // RAID5
		n := int64(len(a.disks))
		dataDisks := n - 1
		parityDisk := int(row % n)
		if parityDisk == r.failed {
			// The lost block is this row's parity: recomputing it needs the
			// whole row, so read every data stripe of the row.
			logOff, logLen = row*dataDisks*a.stripeUnit, dataDisks*a.stripeUnit
		} else {
			// The lost block is a data stripe: its logical index skips the
			// parity member.
			dataIdx := int64(r.failed)
			if r.failed > parityDisk {
				dataIdx--
			}
			stripe := row*dataDisks + dataIdx
			logOff, logLen = stripe*a.stripeUnit, a.stripeUnit
		}
	}
	readDone, _ := port.Access(now, Request{Offset: logOff, Length: logLen})
	phys := row * a.stripeUnit
	done, _ = r.spare.Access(readDone, Request{Offset: phys, Length: a.stripeUnit, Write: true})
	r.spare.addRecovery(0, 0, 1, 0)
	r.next++
	return done, true
}

// Run drives every remaining Step back to back on the simulated clock:
// each block's spare write chains after its reconstruction read, and
// the next read issues at the previous write's completion — a
// sequential rebuild stream. It returns the final completion time.
func (r *Rebuild) Run(now time.Time, port Port) time.Time {
	t := now
	for {
		done, ok := r.Step(t, port)
		if !ok {
			return t
		}
		t = done
	}
}

// Finish promotes the spare into the rebuilt member: the member's fault
// state clears, its mechanical state (head position, busy horizon)
// adopts the spare's, and the spare's statistics merge into the
// member's. The member disk object itself is reused — no pointer in the
// array changes — so Finish is safe under concurrent traffic, though
// deterministic runs promote only after foreground lanes quiesce.
func (r *Rebuild) Finish() error {
	if !r.Done() {
		return fmt.Errorf("simdisk: rebuild incomplete: %d of %d blocks remain", r.Remaining(), r.rows)
	}
	if r.done {
		return nil
	}
	r.done = true
	m := r.a.disks[r.failed]
	r.spare.mu.Lock()
	spareStats := r.spare.stats
	spareHead := r.spare.headPos
	spareBusy := r.spare.busyUntil
	r.spare.mu.Unlock()
	m.mu.Lock()
	m.flt = nil
	m.headPos = spareHead
	if spareBusy.After(m.busyUntil) {
		m.busyUntil = spareBusy
	}
	m.stats.Add(spareStats)
	m.mu.Unlock()
	return nil
}
