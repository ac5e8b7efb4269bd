package netsim

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// FaultKind selects what a scheduled network Fault does.
type FaultKind int

// Network fault kinds.
const (
	// FaultKill removes a node at a virtual timestamp: the node stops
	// sending (its NIC transmits nothing) and every message that would be
	// delivered to it at or after the kill is lost. Kills are permanent —
	// a dead node never answers again.
	FaultKill FaultKind = iota
	// FaultDrop takes a node's link down for a window: messages whose
	// transmission starts (outgoing) or completes (incoming) inside the
	// window are lost, while the node itself stays alive.
	FaultDrop
)

// String names the kind in the plan grammar.
func (k FaultKind) String() string {
	switch k {
	case FaultKill:
		return "kill"
	case FaultDrop:
		return "drop"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault is one scheduled node or link fault. Targets are symbolic
// ("server2", "link0", "client1", or a bare node index) so a plan can be
// written before the node layout is known; Resolve binds them to node
// indices. All times are virtual offsets from the simulation epoch, so a
// plan replays bit-identically regardless of goroutine scheduling.
type Fault struct {
	// Target is the symbolic target the plan was written with.
	Target string
	// Node is the resolved node index; -1 until Resolve binds it.
	Node int
	// Kind selects the behaviour.
	Kind FaultKind
	// At activates the fault.
	At time.Duration
	// For is the drop window's length. Kills ignore it (dead stays dead).
	For time.Duration
}

// Validate reports the first problem with the fault, or nil.
func (f Fault) Validate() error {
	if f.Target == "" {
		return fmt.Errorf("netsim: fault has no target")
	}
	if f.At < 0 {
		return fmt.Errorf("netsim: fault activation %v must be non-negative", f.At)
	}
	if f.Kind == FaultDrop && f.For <= 0 {
		return fmt.Errorf("netsim: drop fault needs a positive window, got %v", f.For)
	}
	if f.Kind != FaultKill && f.Kind != FaultDrop {
		return fmt.Errorf("netsim: unknown fault kind %d", int(f.Kind))
	}
	return nil
}

// FaultPlan schedules node kills and link outages on simulated time. The
// grammar mirrors simdisk's device fault plans:
//
//	kill:<target>@<at>          node death (permanent)
//	drop:<target>@<at>+<for>    link outage window
//
// where <target> is "server<i>", "client<i>", "link<i>", "node<i>", or a
// bare node index, and <at>/<for> are Go durations on the virtual clock.
type FaultPlan struct {
	Faults []Fault
}

// ParseFaultPlan parses the comma-separated fault grammar. An empty
// string parses to a nil plan (no faults). Targets stay symbolic; call
// Resolve before applying the plan to a Network.
func ParseFaultPlan(s string) (*FaultPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var plan FaultPlan
	for i, part := range strings.Split(s, ",") {
		f, err := parseFault(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("netsim: fault %d %q: %w", i, part, err)
		}
		plan.Faults = append(plan.Faults, f)
	}
	return &plan, nil
}

func parseFault(s string) (Fault, error) {
	kind, rest, ok := strings.Cut(s, ":")
	if !ok {
		return Fault{}, fmt.Errorf("want kind:target@..., got %q", s)
	}
	target, spec, ok := strings.Cut(rest, "@")
	if !ok {
		return Fault{}, fmt.Errorf("missing @<at> in %q", s)
	}
	if target == "" {
		return Fault{}, fmt.Errorf("empty target in %q", s)
	}
	f := Fault{Target: target, Node: -1}
	var err error
	switch kind {
	case "kill":
		f.Kind = FaultKill
		if f.At, err = time.ParseDuration(spec); err != nil {
			return Fault{}, fmt.Errorf("activation %q: %w", spec, err)
		}
	case "drop":
		f.Kind = FaultDrop
		atStr, forStr, ok := strings.Cut(spec, "+")
		if !ok {
			return Fault{}, fmt.Errorf("drop needs @<at>+<for>, got %q", spec)
		}
		if f.At, err = time.ParseDuration(atStr); err != nil {
			return Fault{}, fmt.Errorf("activation %q: %w", atStr, err)
		}
		if f.For, err = time.ParseDuration(forStr); err != nil {
			return Fault{}, fmt.Errorf("window %q: %w", forStr, err)
		}
	default:
		return Fault{}, fmt.Errorf("unknown fault kind %q (want kill or drop)", kind)
	}
	return f, f.Validate()
}

// String renders the plan back into the ParseFaultPlan grammar.
func (p *FaultPlan) String() string {
	if p == nil || len(p.Faults) == 0 {
		return ""
	}
	parts := make([]string, 0, len(p.Faults))
	for _, f := range p.Faults {
		switch f.Kind {
		case FaultKill:
			parts = append(parts, fmt.Sprintf("kill:%s@%v", f.Target, f.At))
		case FaultDrop:
			parts = append(parts, fmt.Sprintf("drop:%s@%v+%v", f.Target, f.At, f.For))
		}
	}
	return strings.Join(parts, ",")
}

// Resolve binds every symbolic target to a node index via the caller's
// layout function (e.g. distbench maps "server2" to node Nodes+2). Bare
// integer targets resolve to themselves without consulting the layout.
// Resolve is idempotent and returns the first unresolvable target.
func (p *FaultPlan) Resolve(layout func(target string) (int, error)) error {
	if p == nil {
		return nil
	}
	for i := range p.Faults {
		f := &p.Faults[i]
		if n, err := strconv.Atoi(f.Target); err == nil {
			f.Node = n
			continue
		}
		if layout == nil {
			return fmt.Errorf("netsim: fault %d: symbolic target %q with no layout", i, f.Target)
		}
		n, err := layout(f.Target)
		if err != nil {
			return fmt.Errorf("netsim: fault %d target %q: %w", i, f.Target, err)
		}
		f.Node = n
	}
	return nil
}

// Validate checks every fault is well formed and resolved within an
// n-node network.
func (p *FaultPlan) Validate(n int) error {
	if p == nil {
		return nil
	}
	for i, f := range p.Faults {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("netsim: fault %d: %w", i, err)
		}
		if f.Node < 0 || f.Node >= n {
			return fmt.Errorf("netsim: fault %d target %q resolves to node %d outside 0..%d", i, f.Target, f.Node, n-1)
		}
	}
	return nil
}

// nodeFaults is the per-node fault state; healthy networks keep a nil
// slice so the fault-free path pays one nil check.
type nodeFaults struct {
	killed bool
	killAt time.Duration
	drops  []Fault
}

// ApplyFaultPlan validates the (resolved) plan against the network and
// schedules its faults. Activation offsets are measured from epoch. A
// nil plan is a no-op.
func (n *Network) ApplyFaultPlan(epoch time.Time, plan *FaultPlan) error {
	if plan == nil {
		return nil
	}
	if err := plan.Validate(len(n.nicBusy)); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.epoch = epoch
	if n.flt == nil {
		n.flt = make([]*nodeFaults, len(n.nicBusy))
	}
	for _, f := range plan.Faults {
		nf := n.flt[f.Node]
		if nf == nil {
			nf = &nodeFaults{}
			n.flt[f.Node] = nf
		}
		switch f.Kind {
		case FaultKill:
			if !nf.killed || f.At < nf.killAt {
				nf.killAt = f.At
			}
			nf.killed = true
		case FaultDrop:
			nf.drops = append(nf.drops, f)
		}
	}
	return nil
}

// nodeDeadLocked reports whether node is killed at virtual time at.
func (n *Network) nodeDeadLocked(at time.Time, node int) bool {
	if n.flt == nil || n.flt[node] == nil {
		return false
	}
	nf := n.flt[node]
	return nf.killed && at.Sub(n.epoch) >= nf.killAt
}

// linkDownLocked reports whether node's link is inside a drop window.
func (n *Network) linkDownLocked(at time.Time, node int) bool {
	if n.flt == nil || n.flt[node] == nil {
		return false
	}
	off := at.Sub(n.epoch)
	for _, f := range n.flt[node].drops {
		if off >= f.At && off < f.At+f.For {
			return true
		}
	}
	return false
}

// NodeDead reports whether node is killed at virtual time at.
func (n *Network) NodeDead(at time.Time, node int) bool {
	if node < 0 || node >= len(n.nicBusy) {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nodeDeadLocked(at, node)
}
