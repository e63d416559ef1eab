// Package ccfpr implements the CC-FPR baseline protocol (refs [4], [9] of
// the paper): the same control-channel fibre-ribbon pipeline ring, but with
// the *simple* clocking strategy — the master role rotates round-robin to the
// next downstream node every slot — and with link booking performed greedily
// by each node as the collection packet passes it.
//
// The baseline exhibits exactly the two pessimism sources that motivate
// CCR-EDF:
//
//  1. A node books links for its locally most urgent message "regardless of
//     what [downstream nodes] may have to send", so packets with very tight
//     deadlines can be starved by upstream nodes holding lax traffic.
//
//  2. Clock hand-over ignores message urgency, so the highest-priority
//     message in the system is infeasible in any slot whose (round-robin)
//     master sits inside its path — the priority inversion analysed in
//     ref [5].
package ccfpr

import (
	"fmt"

	"ccredf/internal/core"
	"ccredf/internal/ring"
)

// Arbiter is the CC-FPR round-robin arbiter. It implements core.Protocol so
// the slot engine can run either protocol unchanged.
type Arbiter struct {
	ring         ring.Ring
	spatialReuse bool
	// Reusable outcome scratch (see core.Outcome): the returned grant/deny
	// slices stay valid only until the next Arbitrate call, which keeps the
	// steady-state slot loop allocation-free.
	grants []core.Grant
	denied []int
}

// NewArbiter returns a CC-FPR arbiter for a ring of n nodes.
func NewArbiter(n int, spatialReuse bool) (*Arbiter, error) {
	r, err := ring.New(n)
	if err != nil {
		return nil, fmt.Errorf("ccfpr: %w", err)
	}
	return &Arbiter{ring: r, spatialReuse: spatialReuse}, nil
}

// Name implements core.Protocol.
func (a *Arbiter) Name() string {
	if a.spatialReuse {
		return "cc-fpr"
	}
	return "cc-fpr/no-reuse"
}

// Ring returns the arbiter's topology.
func (a *Arbiter) Ring() ring.Ring { return a.ring }

// Arbitrate implements core.Protocol. The master role is handed to the next
// downstream node unconditionally. Booking happens in collection order: the
// packet leaves the current master and passes nodes downstream, each booking
// the links for its own head message if they are still free and the segment
// is feasible under the next slot's (round-robin) master; the current master
// processes its own request last, when the packet returns. Priorities are
// only considered locally — a node books for its own most urgent message,
// never yielding to a more urgent downstream request.
func (a *Arbiter) Arbitrate(reqs []core.Request, curMaster int) core.Outcome {
	n := a.ring.Nodes()
	next := a.ring.Next(curMaster)
	grants, denied := a.grants[:0], a.denied[:0]
	var used ring.LinkSet
	booked := 0
	for i := 1; i <= n; i++ {
		node := (curMaster + i) % n // collection order; i == n is the master itself
		req := reqs[node]
		if req.Empty() {
			continue
		}
		links := req.Links
		switch {
		case !a.spatialReuse && booked > 0,
			!a.ring.Feasible(req.Node, req.Dests, next),
			used.Overlaps(links):
			denied = append(denied, req.Node)
			continue
		}
		used = used.Union(links)
		booked++
		grants = append(grants, core.Grant{Node: req.Node, Dests: req.Dests, Links: links, MsgID: req.MsgID})
	}
	a.grants, a.denied = grants, denied
	return core.Outcome{Master: next, Grants: grants, Denied: denied}
}

var _ core.Protocol = (*Arbiter)(nil)
