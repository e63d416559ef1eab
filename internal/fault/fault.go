// Package fault is the deterministic fault-injection layer of the simulator:
// a declarative Plan of control-channel and node faults, and the seeded
// Injector the slot engine consults while it runs.
//
// The fault model covers the failure classes the paper's §8 future work and
// the TSN fault-tolerance literature treat as first class:
//
//   - dropped TCMA collection packets (a bit error eats the collection round;
//     the incumbent master keeps clocking and the round retries next slot),
//   - dropped TCMA distribution packets (the arbitration result never reaches
//     the ring; no grants execute, the incumbent keeps the clock),
//   - clock-handover failures in the inter-slot gap (the elected master never
//     starts clocking; the incumbent detects the silence and forfeits the
//     slot, Equation 1 gap accounting intact),
//   - node crashes with scheduled restarts (queued messages expire, the ring
//     re-forms, master election skips the dead node).
//
// Determinism: the Injector draws from its own internal/rng stream, separate
// from the workload and loss streams, so enabling faults never perturbs
// traffic randomness and every fault run is byte-reproducible for a given
// Plan. The per-slot query methods are allocation-free (DESIGN.md §9); with a
// nil Plan the engine performs one nil check per hook and nothing else.
package fault

import (
	"fmt"
	"sort"

	"ccredf/internal/rng"
)

// Kind classifies one injected fault. The zero value means "no fault" so an
// obs.Event carrying no fault renders as an empty string.
type Kind uint8

const (
	// None is the zero value: the event carries no fault.
	None Kind = iota
	// CollectionDrop is a lost/corrupted TCMA collection packet: the master
	// never sees the round's requests and re-arbitrates next slot.
	CollectionDrop
	// DistributionDrop is a lost/corrupted TCMA distribution packet: the
	// arbitration outcome never reaches the nodes, so no grants execute and
	// the incumbent master keeps the clock.
	DistributionDrop
	// HandoverFail is a clock-handover failure in the inter-slot gap: the
	// elected master never starts clocking and the incumbent re-takes the
	// clock after a forfeited slot of silence.
	HandoverFail
	// NodeCrash is a node dying at a scheduled slot (and possibly restarting
	// at a later one): its queue expires and the ring re-forms around it.
	NodeCrash

	numKinds
)

var kindNames = [numKinds]string{
	None:             "",
	CollectionDrop:   "collection-drop",
	DistributionDrop: "distribution-drop",
	HandoverFail:     "handover-fail",
	NodeCrash:        "node-crash",
}

// String returns the fault's wire name ("" for None).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Crash schedules one node failure. The node dies at the end of slot At;
// when Restart is non-zero the node comes back at the end of slot Restart
// (its queue — everything that accumulated while it was dark — expires).
// Restart == 0 means the node never returns.
type Crash struct {
	Node    int   `json:"node"`
	At      int64 `json:"at_slot"`
	Restart int64 `json:"restart_slot,omitempty"`
}

// Plan declares the faults of one run. The zero value injects nothing.
type Plan struct {
	// Seed drives the injector's private random stream. Zero is a valid
	// seed; equal plans give byte-identical fault sequences.
	Seed uint64 `json:"seed,omitempty"`
	// CollectionDropProb is the per-slot probability that the collection
	// packet is lost to a control-channel bit error.
	CollectionDropProb float64 `json:"collection_drop_prob,omitempty"`
	// DistributionDropProb is the per-slot probability that the distribution
	// packet is lost.
	DistributionDropProb float64 `json:"distribution_drop_prob,omitempty"`
	// HandoverFailProb is the per-handover probability (only drawn when the
	// clock actually moves) that the elected master fails to take over.
	HandoverFailProb float64 `json:"handover_fail_prob,omitempty"`
	// Crashes schedules node failures.
	Crashes []Crash `json:"crashes,omitempty"`
}

// Enabled reports whether the plan can inject anything at all.
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	return p.CollectionDropProb > 0 || p.DistributionDropProb > 0 ||
		p.HandoverFailProb > 0 || len(p.Crashes) > 0
}

// Validate checks the plan. nodes is the ring size (0 skips the node-range
// checks, for callers that validate before the ring is known). Errors are
// field-qualified so scenario validation can prefix them verbatim.
func (p *Plan) Validate(nodes int) error {
	if p == nil {
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"collection_drop_prob", p.CollectionDropProb},
		{"distribution_drop_prob", p.DistributionDropProb},
		{"handover_fail_prob", p.HandoverFailProb},
	} {
		if !(f.v >= 0 && f.v <= 1) { // NaN fails too
			return fmt.Errorf("%s %g outside [0,1]", f.name, f.v)
		}
	}
	// Per-node crash intervals must be well-formed and non-overlapping: a
	// node cannot die again before it restarted, and a permanent crash
	// (Restart == 0) must be the node's last.
	last := make(map[int]Crash)
	order := append([]Crash(nil), p.Crashes...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].At < order[j].At })
	for i, c := range p.Crashes {
		if nodes > 0 && (c.Node < 0 || c.Node >= nodes) {
			return fmt.Errorf("crashes[%d].node %d outside ring [0,%d)", i, c.Node, nodes)
		}
		if c.Node < 0 {
			return fmt.Errorf("crashes[%d].node %d negative", i, c.Node)
		}
		if c.At < 1 {
			return fmt.Errorf("crashes[%d].at_slot %d not positive", i, c.At)
		}
		if c.Restart != 0 && c.Restart <= c.At {
			return fmt.Errorf("crashes[%d].restart_slot %d not after at_slot %d", i, c.Restart, c.At)
		}
	}
	for _, c := range order {
		prev, seen := last[c.Node]
		if seen {
			if prev.Restart == 0 {
				return fmt.Errorf("crashes: node %d crashes at slot %d after a permanent crash at slot %d", c.Node, c.At, prev.At)
			}
			if c.At <= prev.Restart {
				return fmt.Errorf("crashes: node %d crashes at slot %d before restarting from the crash at slot %d", c.Node, c.At, prev.At)
			}
		}
		last[c.Node] = c
	}
	return nil
}

// Injector is the engine-facing side of a Plan: seeded random draws for the
// probabilistic faults and sorted cursors over the crash/restart schedule.
// All methods are allocation-free; the injector is single-threaded like the
// simulation it serves.
type Injector struct {
	plan     Plan
	rnd      *rng.Source
	crashes  []Crash // sorted by At
	restarts []Crash // entries with Restart != 0, sorted by Restart
	ci, ri   int
}

// New compiles a plan into an injector. The plan is validated against the
// ring size first.
func New(p Plan, nodes int) (*Injector, error) {
	if err := p.Validate(nodes); err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	in := &Injector{plan: p, rnd: rng.New(p.Seed)}
	in.crashes = append([]Crash(nil), p.Crashes...)
	sort.SliceStable(in.crashes, func(i, j int) bool { return in.crashes[i].At < in.crashes[j].At })
	for _, c := range in.crashes {
		if c.Restart != 0 {
			in.restarts = append(in.restarts, c)
		}
	}
	sort.SliceStable(in.restarts, func(i, j int) bool { return in.restarts[i].Restart < in.restarts[j].Restart })
	return in, nil
}

// Plan returns the compiled plan.
func (in *Injector) Plan() Plan { return in.plan }

// DropCollection draws whether this slot's collection packet is lost.
func (in *Injector) DropCollection() bool {
	return in.plan.CollectionDropProb > 0 && in.rnd.Bool(in.plan.CollectionDropProb)
}

// DropDistribution draws whether this slot's distribution packet is lost.
func (in *Injector) DropDistribution() bool {
	return in.plan.DistributionDropProb > 0 && in.rnd.Bool(in.plan.DistributionDropProb)
}

// FailHandover draws whether this slot's clock handover fails. The engine
// only asks when the clock actually moves between nodes.
func (in *Injector) FailHandover() bool {
	return in.plan.HandoverFailProb > 0 && in.rnd.Bool(in.plan.HandoverFailProb)
}

// NextCrash pops the next scheduled crash with At ≤ slot, if any. The ≤
// catch-up semantics make the schedule robust to slot numbers the engine
// skips during recovery silences.
func (in *Injector) NextCrash(slot int64) (Crash, bool) {
	if in.ci >= len(in.crashes) || in.crashes[in.ci].At > slot {
		return Crash{}, false
	}
	c := in.crashes[in.ci]
	in.ci++
	return c, true
}

// NextRestart pops the next scheduled restart with Restart ≤ slot, if any.
func (in *Injector) NextRestart(slot int64) (Crash, bool) {
	if in.ri >= len(in.restarts) || in.restarts[in.ri].Restart > slot {
		return Crash{}, false
	}
	c := in.restarts[in.ri]
	in.ri++
	return c, true
}
