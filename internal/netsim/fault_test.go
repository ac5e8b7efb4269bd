package netsim

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseFaultPlanRoundTrip(t *testing.T) {
	in := "kill:server2@50ms,drop:link0@10ms+5ms,kill:3@1s"
	plan, err := ParseFaultPlan(in)
	if err != nil {
		t.Fatalf("ParseFaultPlan: %v", err)
	}
	if got := len(plan.Faults); got != 3 {
		t.Fatalf("parsed %d faults, want 3", got)
	}
	want := []Fault{
		{Target: "server2", Node: -1, Kind: FaultKill, At: 50 * time.Millisecond},
		{Target: "link0", Node: -1, Kind: FaultDrop, At: 10 * time.Millisecond, For: 5 * time.Millisecond},
		{Target: "3", Node: -1, Kind: FaultKill, At: time.Second},
	}
	if !reflect.DeepEqual(plan.Faults, want) {
		t.Fatalf("parsed %+v, want %+v", plan.Faults, want)
	}
	out := plan.String()
	plan2, err := ParseFaultPlan(out)
	if err != nil {
		t.Fatalf("re-parse %q: %v", out, err)
	}
	if !reflect.DeepEqual(plan, plan2) {
		t.Fatalf("round trip changed the plan: %+v vs %+v", plan, plan2)
	}
}

func TestParseFaultPlanErrors(t *testing.T) {
	for _, bad := range []string{
		"boom:0@0s",     // unknown kind
		"kill:0",        // missing @at
		"drop:0@1ms",    // drop without window
		"kill:0@-1ms",   // negative activation
		"drop:0@0s+0s",  // empty window
		"kill:@0s",      // empty target
		"kill",          // no separator
		"drop:0@1ms+xx", // unparseable window
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted", bad)
		}
	}
	if plan, err := ParseFaultPlan("  "); err != nil || plan != nil {
		t.Fatalf("blank plan = (%v, %v), want (nil, nil)", plan, err)
	}
}

func TestResolveBindsSymbolicTargets(t *testing.T) {
	plan, err := ParseFaultPlan("kill:server1@50ms,drop:client0@0s+1ms,kill:2@0s")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	layout := func(target string) (int, error) {
		switch target {
		case "server1":
			return 5, nil
		case "client0":
			return 0, nil
		}
		return 0, errFmt(target)
	}
	if err := plan.Resolve(layout); err != nil {
		t.Fatalf("resolve: %v", err)
	}
	for i, want := range []int{5, 0, 2} {
		if got := plan.Faults[i].Node; got != want {
			t.Errorf("fault %d resolved to node %d, want %d", i, got, want)
		}
	}
	// Validate catches out-of-range resolutions.
	if err := plan.Validate(3); err == nil {
		t.Fatalf("Validate(3) accepted node 5")
	}
	if err := plan.Validate(6); err != nil {
		t.Fatalf("Validate(6): %v", err)
	}
}

func errFmt(target string) error { return &unknownTarget{target} }

type unknownTarget struct{ t string }

func (e *unknownTarget) Error() string { return "unknown target " + e.t }

func TestKillDropsDeliveriesAfterDeath(t *testing.T) {
	n := MustNew(3, LANParams())
	t0 := time.Unix(0, 0)
	plan, err := ParseFaultPlan("kill:1@1ms")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := plan.Resolve(nil); err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if err := n.ApplyFaultPlan(t0, plan); err != nil {
		t.Fatalf("apply: %v", err)
	}
	// Delivery before the kill arrives.
	if _, lost, err := n.Send(t0, 0, 1, 64); err != nil || lost {
		t.Fatalf("pre-kill send lost=%v err=%v", lost, err)
	}
	if !n.NodeDead(t0.Add(time.Millisecond), 1) {
		t.Fatalf("node 1 should be dead at +1ms")
	}
	// A message delivered after the kill is lost, but the sender's NIC is
	// still billed (the sender cannot know).
	before := n.Stats()
	done2, lost2, err := n.Send(t0.Add(2*time.Millisecond), 0, 1, 64)
	if err != nil || !lost2 {
		t.Fatalf("post-kill send lost=%v err=%v", lost2, err)
	}
	if done2.IsZero() {
		t.Fatalf("lost delivery from a live sender should still report its NIC completion")
	}
	after := n.Stats()
	if after.Messages != before.Messages+1 || after.Dropped != before.Dropped+1 {
		t.Fatalf("stats %+v -> %+v, want one more message and one more drop", before, after)
	}
	// The dead node transmits nothing: no billing, message lost.
	before = after
	_, lost3, err := n.Send(done2, 1, 0, 64)
	if err != nil || !lost3 {
		t.Fatalf("dead sender lost=%v err=%v", lost3, err)
	}
	after = n.Stats()
	if after.Messages != before.Messages || after.BusyTime != before.BusyTime {
		t.Fatalf("dead sender was billed: %+v -> %+v", before, after)
	}
	if after.Dropped != before.Dropped+1 {
		t.Fatalf("dead sender's message not counted dropped")
	}
}

func TestDropWindowLosesOnlyInsideWindow(t *testing.T) {
	n := MustNew(2, Params{Latency: time.Millisecond, Bandwidth: 1 << 30, PerMessageCPU: 0})
	t0 := time.Unix(0, 0)
	plan, err := ParseFaultPlan("drop:1@10ms+5ms")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := plan.Resolve(nil); err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if err := n.ApplyFaultPlan(t0, plan); err != nil {
		t.Fatalf("apply: %v", err)
	}
	// Delivered at +1ms: before the window.
	if _, lost, _ := n.Send(t0, 0, 1, 0); lost {
		t.Fatalf("pre-window delivery lost")
	}
	// Delivered at +12ms: inside the window on the receiver's link.
	if _, lost, _ := n.Send(t0.Add(11*time.Millisecond), 0, 1, 0); !lost {
		t.Fatalf("in-window delivery survived")
	}
	// Transmission starting at +12ms from the dropped node: outgoing lost.
	if _, lost, _ := n.Send(t0.Add(12*time.Millisecond), 1, 0, 0); !lost {
		t.Fatalf("in-window outgoing survived")
	}
	// After the window lifts, both directions work again.
	if _, lost, _ := n.Send(t0.Add(20*time.Millisecond), 0, 1, 0); lost {
		t.Fatalf("post-window delivery lost")
	}
	if _, lost, _ := n.Send(t0.Add(20*time.Millisecond), 1, 0, 0); lost {
		t.Fatalf("post-window outgoing lost")
	}
}

func TestApplyFaultPlanRejectsUnresolved(t *testing.T) {
	n := MustNew(2, LANParams())
	plan, err := ParseFaultPlan("kill:server0@0s")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	err = n.ApplyFaultPlan(time.Unix(0, 0), plan)
	if err == nil || !strings.Contains(err.Error(), "server0") {
		t.Fatalf("unresolved plan accepted (err=%v)", err)
	}
}
