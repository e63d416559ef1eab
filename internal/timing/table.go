package timing

import "fmt"

// Table caches every Params-derived quantity the slot engine touches per
// slot. The closed-form accessors on Params are pure functions of a fixed
// configuration, but they are not free: each call copies the Params value and
// PropagationBetween walks the links between the nodes, which made the timing
// arithmetic (not the protocol!) the single largest cost in the steady-state
// profile — ~30% of slot time, dominated by the O(N²) per-slot propagation
// recomputation in the collection schedule. A Table folds all of it into flat
// lookups computed once at network construction.
//
// A Table never changes an observable result: every field and method returns
// exactly what the corresponding Params accessor returns for the same
// arguments, byte for byte.
type Table struct {
	// Scalar quantities, one Params call each.
	BitTime      Time
	SlotTime     Time
	NodeDelay    Time // NodeControlDelay
	RingProp     Time // RingPropagation
	MinSlot      Time // MinSlotLength (Equation 2)
	MaxHandover  Time // MaxHandoverTime (Equation 1 worst case)
	WorstLatency Time // WorstCaseLatency (Equation 4)
	SlotPeriod   Time // SlotTime + MaxHandover: the RunSlots budget per slot

	n       int
	prop    []Time // prop[from*n+to] = PropagationBetween(from, to)
	collect []Time // collect[m*n+i-1] = i·NodeDelay + prop to i-th node after m
}

// NewTable precomputes the timing table for p. p must be valid.
func NewTable(p Params) *Table {
	n := p.Nodes
	t := &Table{
		BitTime:      p.BitTime(),
		SlotTime:     p.SlotTime(),
		NodeDelay:    p.NodeControlDelay(),
		RingProp:     p.RingPropagation(),
		MinSlot:      p.MinSlotLength(),
		MaxHandover:  p.MaxHandoverTime(),
		WorstLatency: p.WorstCaseLatency(),
		n:            n,
		prop:         make([]Time, n*n),
	}
	t.SlotPeriod = t.SlotTime + t.MaxHandover
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			t.prop[from*n+to] = p.PropagationBetween(from, to)
		}
	}
	t.collect = make([]Time, n*n)
	for m := 0; m < n; m++ {
		for i := 1; i <= n; i++ {
			prop := t.prop[m*n+(m+i)%n]
			if i == n {
				prop = t.RingProp // full loop back to the master
			}
			t.collect[m*n+i-1] = Time(i)*t.NodeDelay + prop
		}
	}
	// The slot engine runs each collection round as one point that visits
	// stations in hop order (internal/network), so the visit times must
	// rise with the hop count and the last must come by the arbitration at
	// MinSlot, itself no later than the slot end. Valid Params guarantee
	// all three (every hop adds a node delay of at least one bit time).
	for m := 0; m < n; m++ {
		prev := Time(0)
		for _, off := range t.collect[m*n : m*n+n] {
			if off <= prev || off > t.MinSlot || t.MinSlot > t.SlotTime {
				panic(fmt.Sprintf("timing: collection offsets of master %d do not rise to MinSlot %v within slot %v",
					m, t.MinSlot, t.SlotTime))
			}
			prev = off
		}
	}
	return t
}

// Prop returns PropagationBetween(from, to). Arguments are reduced modulo the
// ring size, matching the Params accessor (the slot engine indexes with
// master+i and src+span running at most one ring past N, so the reduction
// loops run zero or one iteration there — no division on the hot path).
func (t *Table) Prop(from, to int) Time {
	n := t.n
	for from >= n {
		from -= n
	}
	for from < 0 {
		from += n
	}
	for to >= n {
		to -= n
	}
	for to < 0 {
		to += n
	}
	return t.prop[from*n+to]
}

// CollectOff returns the offset from slot start at which the collection
// packet reaches the i-th node downstream of master, for i in [1, N]: i
// per-node control delays plus the propagation over the i links between them
// (i == N is the full loop back to the master). This is the inner term of the
// slot engine's collection schedule, Equation 2 unrolled per hop.
func (t *Table) CollectOff(master, i int) Time {
	return t.collect[master*t.n+i-1]
}
