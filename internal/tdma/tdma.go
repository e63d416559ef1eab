// Package tdma implements a static time-division ring as a second baseline:
// each node owns every Nth slot outright (no arbitration latency, but no
// work-conserving sharing either). It represents the classical
// deterministic LAN alternative the fibre-ribbon papers position themselves
// against: its guaranteed per-node utilisation of exactly 1/N is what the
// CC-FPR worst case degenerates to, while CCR-EDF shares the full U_max
// among whoever is urgent.
//
// The master (clocking) role follows the slot owner, so the hand-over gap
// is the constant one-hop time of the simple clocking strategy. The slot
// owner may transmit to any destination (the break sits at the owner);
// spatial reuse optionally lets non-owners use disjoint leftover segments,
// booked in ring order after the owner.
package tdma

import (
	"fmt"

	"ccredf/internal/core"
	"ccredf/internal/ring"
)

// Arbiter is the static-TDMA arbiter. It implements core.Protocol.
type Arbiter struct {
	ring         ring.Ring
	spatialReuse bool
	slot         int64 // arbitration round counter ⇒ slot ownership
	// Reusable outcome scratch (see core.Outcome): the returned grant/deny
	// slices stay valid only until the next Arbitrate call, which keeps the
	// steady-state slot loop allocation-free.
	grants []core.Grant
	denied []int
}

// NewArbiter returns a TDMA arbiter for a ring of n nodes.
func NewArbiter(n int, spatialReuse bool) (*Arbiter, error) {
	r, err := ring.New(n)
	if err != nil {
		return nil, fmt.Errorf("tdma: %w", err)
	}
	return &Arbiter{ring: r, spatialReuse: spatialReuse}, nil
}

// Name implements core.Protocol.
func (a *Arbiter) Name() string {
	if a.spatialReuse {
		return "tdma"
	}
	return "tdma/no-reuse"
}

// Ring returns the arbiter's topology.
func (a *Arbiter) Ring() ring.Ring { return a.ring }

// Arbitrate implements core.Protocol: slot k+1 belongs to node (k+1) mod N
// unconditionally. The owner's request (if any) is granted first; with
// spatial reuse, the remaining nodes book disjoint feasible segments in
// ring order after the owner.
func (a *Arbiter) Arbitrate(reqs []core.Request, curMaster int) core.Outcome {
	n := a.ring.Nodes()
	a.slot++
	owner := int(a.slot % int64(n))
	grants, denied := a.grants[:0], a.denied[:0]
	var used ring.LinkSet
	granted := 0
	for i := 0; i <= n-1; i++ {
		node := (owner + i) % n
		req := reqs[node]
		if req.Empty() {
			continue
		}
		links := req.Links
		switch {
		case i > 0 && !a.spatialReuse,
			!a.ring.Feasible(req.Node, req.Dests, owner),
			used.Overlaps(links):
			denied = append(denied, req.Node)
			continue
		}
		used = used.Union(links)
		granted++
		grants = append(grants, core.Grant{Node: req.Node, Dests: req.Dests, Links: links, MsgID: req.MsgID})
	}
	a.grants, a.denied = grants, denied
	return core.Outcome{Master: owner, Grants: grants, Denied: denied}
}

var _ core.Protocol = (*Arbiter)(nil)
