// Package core implements the CCR-EDF medium access protocol — the paper's
// primary contribution. Each slot, the arbiter receives one request per node
// (collected over the control channel during the previous slot), orders them
// by priority with the node index breaking ties, elects the highest-priority
// requester as the next master (which hands it the clocking responsibility
// and therefore guarantees its transmission is feasible), and greedily grants
// as many further link-disjoint requests as spatial reuse allows. The
// paper's traversal of the sorted request list is realised as repeated
// selection of the highest-priority still-grantable request, which yields
// identical grants in identical order without sorting the slate.
package core

import (
	"fmt"
	"math/bits"

	"ccredf/internal/ring"
	"ccredf/internal/sched"
	"ccredf/internal/timing"
)

// Request is one node's transmission request for the coming slot: the
// decoded content of its collection-phase entry (wire.Request) plus the
// bookkeeping the simulator needs to map a grant back to a queued message.
//
// Links is the entry's link reservation field (wire.Request.Reserve): the
// segment ring.PathLinks(Node, Dests) the transmission would occupy. The
// arbiters and the wire check read it instead of recomputing the segment,
// so a non-empty request must carry it; the sampling node computes it once
// per queue-head change (see package node), and slates built elsewhere fill
// it with FillLinks. The §6 invariant checker recomputes it independently.
type Request struct {
	// Node is the requesting node's index.
	Node int
	// Class is the traffic class the wire priority encodes.
	Class sched.Class
	// Prio is the 5-bit wire priority (Table 1).
	Prio uint8
	// Deadline is the absolute network-level deadline behind the priority;
	// used directly in sched.MapExact mode and for diagnostics.
	Deadline timing.Time
	// Dests is the destination set of the head message.
	Dests ring.NodeSet
	// MsgID identifies the message the request is for.
	MsgID int64
	// Links is the link reservation field: the segment of links the
	// transmission occupies (empty for an empty request).
	Links ring.LinkSet
}

// Empty reports whether the node has nothing to send.
func (r Request) Empty() bool { return r.Prio == sched.PrioNothing || r.Dests.Empty() }

// FillLinks sets the reservation field of every request in reqs to its
// segment on ring r (none for an empty request) and returns reqs. It is for
// slates assembled outside the slot engine, whose nodes fill the field as
// they sample.
func FillLinks(r ring.Ring, reqs []Request) []Request {
	for i := range reqs {
		reqs[i].Links = 0
		if !reqs[i].Empty() {
			reqs[i].Links = r.PathLinks(reqs[i].Node, reqs[i].Dests)
		}
	}
	return reqs
}

// Grant is one accepted transmission for the coming slot.
type Grant struct {
	// Node is the transmitting node.
	Node int
	// Dests is the destination set.
	Dests ring.NodeSet
	// Links is the contiguous segment of links the transmission occupies.
	Links ring.LinkSet
	// MsgID identifies the message being sent.
	MsgID int64
}

// Outcome is the result of one arbitration round: the content of the
// distribution-phase packet.
//
// Hot-path memory discipline: the Grants and Denied slices returned by the
// arbiters in this repository alias per-arbiter scratch buffers and stay
// valid only until the protocol's next Arbitrate call. Callers that retain an
// outcome across rounds must copy the slices (the slot engine consumes each
// outcome before the next round begins and needs no copy).
type Outcome struct {
	// Master is the node that will clock the coming slot (the
	// highest-priority requester, or the previous master when no node
	// requested anything).
	Master int
	// Grants are the accepted transmissions, in grant order (the master's
	// own grant, when present, is first).
	Grants []Grant
	// Denied lists the nodes whose requests were refused this slot.
	Denied []int
}

// Granted reports whether node holds a grant in the outcome.
func (o Outcome) Granted(node int) bool {
	for _, g := range o.Grants {
		if g.Node == node {
			return true
		}
	}
	return false
}

// GrantedSet returns the set of granted nodes.
func (o Outcome) GrantedSet() ring.NodeSet {
	var s ring.NodeSet
	for _, g := range o.Grants {
		s = s.Add(g.Node)
	}
	return s
}

// Protocol is the arbitration strategy interface shared by CCR-EDF and the
// CC-FPR baseline. Arbitrate receives the requests sampled during the
// current slot (indexed by node) and the current master, and decides the
// next slot's master and grants.
type Protocol interface {
	// Arbitrate decides the coming slot.
	Arbitrate(reqs []Request, curMaster int) Outcome
	// Name identifies the protocol in traces and experiment tables.
	Name() string
}

// Arbiter is the CCR-EDF arbiter.
type Arbiter struct {
	ring ring.Ring
	mode sched.MapMode
	// spatialReuse enables granting several non-overlapping transmissions
	// per slot. The schedulability analysis never relies on it (Section 5),
	// but at run time it "always results in positive effects".
	spatialReuse bool
	// Reusable per-round scratch: the order keys, the grant candidates and
	// the outcome's grant/deny slices. Arbitrate runs once per slot for the
	// lifetime of a simulation, so reusing these keeps the steady-state slot
	// loop allocation-free. While keys are built, prev[k] is the key index
	// of the same node's previous request (k itself for a node's first) and
	// last[v] is node v's latest key index.
	keys   []orderKey
	prev   []uint16
	last   [64]uint16
	cands  []candidate
	grants []Grant
	denied []int
}

// orderKey is a request's position in the arbitration order, packed into a
// 128-bit big-endian integer that orders ascending from the highest-priority
// request:
//
//	hi: major (8 bits) | deadline (top 56 bits)
//	lo: deadline (low 8 bits) | node (16) | same-node rank (16) | slate index (16)
//
// major is the inverted 5-bit priority (Map5Bit) or the inverted class band
// (MapExact); the deadline is the full-resolution deadline with its sign bit
// flipped so it orders as unsigned (MapExact), or zero (Map5Bit). The
// same-node rank counts the node's other requests this round that compare
// ahead of it — what compare's deadline/message-ID tie-break decides — or
// compare equal and come earlier in the slate, so equal requests keep slate
// order as a stable sort would. The slate index locates the request. A
// slate holds at most 2×64 requests, well inside the 16-bit fields.
type orderKey struct{ hi, lo uint64 }

const (
	keyIndexBits = 16
	keyRankShift = keyIndexBits
	keyNodeShift = 2 * keyIndexBits
)

func (x orderKey) less(y orderKey) bool {
	return x.hi < y.hi || x.hi == y.hi && x.lo < y.lo
}

// index returns the key's slate index.
func (x orderKey) index() int { return int(x.lo & (1<<keyIndexBits - 1)) }

// node returns the key's requesting node.
func (x orderKey) node() int { return int(x.lo >> keyNodeShift & (1<<keyIndexBits - 1)) }

// candidate is a request still grantable in the current round: its order key
// and the links its transmission occupies.
type candidate struct {
	key   orderKey
	links ring.LinkSet
}

// NewArbiter returns a CCR-EDF arbiter for a ring of n nodes.
func NewArbiter(n int, mode sched.MapMode, spatialReuse bool) (*Arbiter, error) {
	r, err := ring.New(n)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Arbiter{ring: r, mode: mode, spatialReuse: spatialReuse}, nil
}

// Name implements Protocol.
func (a *Arbiter) Name() string {
	if a.spatialReuse {
		return "ccr-edf"
	}
	return "ccr-edf/no-reuse"
}

// Ring returns the arbiter's topology.
func (a *Arbiter) Ring() ring.Ring { return a.ring }

// Mode returns the priority-comparison mode.
func (a *Arbiter) Mode() sched.MapMode { return a.mode }

// compare ranks request x against request y under the arbiter's mapping
// mode: negative when x outranks y. In Map5Bit mode the 5-bit wire priority
// decides (exactly what the hardware master sees); in MapExact mode the class
// bands still apply but deadlines are compared at full resolution. Priority
// ties are resolved by the node index, as in the paper ("the index of the
// node resolves the tie"). The order is strict and total: with the
// secondary-request extension the same node contributes two requests per
// round, and a node-index tie between them is broken by deadline and then
// message ID — both ascending, which deterministically ranks a node's primary
// (its queue head) ahead of its own secondary.
func (a *Arbiter) compare(x, y Request) int {
	if a.mode == sched.MapExact {
		cx, cy := sched.PrioClass(x.Prio), sched.PrioClass(y.Prio)
		if cx != cy {
			if cx > cy {
				return -1
			}
			return 1
		}
		if x.Deadline != y.Deadline {
			if x.Deadline < y.Deadline {
				return -1
			}
			return 1
		}
	} else if x.Prio != y.Prio {
		if x.Prio > y.Prio {
			return -1
		}
		return 1
	}
	if x.Node != y.Node {
		if x.Node < y.Node {
			return -1
		}
		return 1
	}
	if x.Deadline != y.Deadline {
		if x.Deadline < y.Deadline {
			return -1
		}
		return 1
	}
	switch {
	case x.MsgID < y.MsgID:
		return -1
	case x.MsgID > y.MsgID:
		return 1
	}
	return 0
}

// key returns r's order key at slate index idx, with a zero same-node rank.
func (a *Arbiter) key(r Request, idx int) orderKey {
	major, deadline := ^r.Prio, uint64(0)
	if a.mode == sched.MapExact {
		major = ^uint8(sched.PrioClass(r.Prio))
		deadline = uint64(r.Deadline) ^ 1<<63
	}
	return orderKey{
		hi: uint64(major)<<56 | deadline>>8,
		lo: deadline<<56 | uint64(r.Node)<<keyNodeShift | uint64(idx),
	}
}

// buildKeys fills a.keys with one key per non-empty request of reqs, in
// slate order, and returns the set of requesting nodes. Only requests of the
// same node ever need compare itself, once per pair: every other ordering
// decision is a key comparison.
func (a *Arbiter) buildKeys(reqs []Request) ring.NodeSet {
	keys, prev := a.keys[:0], a.prev[:0]
	var seen ring.NodeSet
	for i := range reqs {
		r := &reqs[i]
		if r.Empty() {
			continue
		}
		k, link := a.key(*r, i), uint16(len(keys))
		if seen.Contains(r.Node) {
			// Rank r against each earlier request of its node, walking
			// the node's chain back from its latest key (a key linking to
			// itself ends the chain).
			link = a.last[r.Node]
			for j := link; ; j = prev[j] {
				if a.compare(*r, reqs[keys[j].index()]) < 0 {
					keys[j].lo += 1 << keyRankShift
				} else {
					k.lo += 1 << keyRankShift
				}
				if prev[j] == j {
					break
				}
			}
		}
		seen = seen.Add(r.Node)
		a.last[r.Node] = uint16(len(keys))
		keys, prev = append(keys, k), append(prev, link)
	}
	a.keys, a.prev = keys, prev
	return seen
}

// Arbitrate implements Protocol. The paper's master traverses the sorted
// request list, starting with the highest priority, and tries to fulfil as
// many of the N requests as possible: the top request always succeeds (its
// owner becomes master and the clock break moves to it); later requests
// succeed when spatial reuse is enabled, their segment is link-disjoint from
// every earlier grant and their path avoids the new clock break.
//
// The traversal is realised as repeated selection, which grants the same
// requests in the same order without sorting the slate. Grantability only
// shrinks as grants accumulate (used links and granted nodes only grow), so
// a request refused at its turn in the sorted walk could never be granted
// later. Hence, after electing the master as the minimum key, the walk's
// next grant is always the minimum among the requests still grantable, and
// every other request can be discarded the moment it stops being grantable.
func (a *Arbiter) Arbitrate(reqs []Request, curMaster int) Outcome {
	requested := a.buildKeys(reqs)
	keys := a.keys
	if len(keys) == 0 {
		// Nothing to send anywhere: the current master keeps clocking.
		return Outcome{Master: curMaster}
	}
	top := keys[0]
	for _, k := range keys[1:] {
		if k.less(top) {
			top = k
		}
	}
	// The new master's own request is always feasible by construction
	// (≤ N−1 hops, never crosses its own break).
	mr := &reqs[top.index()]
	master := mr.Node
	used := mr.Links
	granted := ring.NodeSet(0).Add(master)
	grants := append(a.grants[:0], Grant{Node: master, Dests: mr.Dests, Links: used, MsgID: mr.MsgID})
	if a.spatialReuse {
		// The candidates are the requests grantable beside the master
		// alone. A node transmits at most one packet per slot, so the
		// master's other request (a secondary) is never one. Another
		// node's segment crosses the clock break (ring.Feasible fails)
		// exactly when it uses the link leaving the master, so that link
		// joins the master's own as blocked.
		cands := a.cands[:0]
		blocked := used.Union(ring.Link(master))
		for _, k := range keys {
			r := &reqs[k.index()]
			if r.Node == master || blocked.Overlaps(r.Links) {
				continue
			}
			cands = append(cands, candidate{key: k, links: r.Links})
		}
		for len(cands) > 0 {
			best := 0
			for i := 1; i < len(cands); i++ {
				if cands[i].key.less(cands[best].key) {
					best = i
				}
			}
			c := cands[best]
			r := reqs[c.key.index()]
			used = used.Union(c.links)
			granted = granted.Add(r.Node)
			grants = append(grants, Grant{Node: r.Node, Dests: r.Dests, Links: c.links, MsgID: r.MsgID})
			// Keep only the requests still grantable: link-disjoint from
			// every grant so far, from a node not yet granted (a
			// secondary is only considered when its primary lost).
			kept := cands[:0]
			for _, x := range cands {
				if !used.Overlaps(x.links) && !granted.Contains(x.key.node()) {
					kept = append(kept, x)
				}
			}
			cands = kept
		}
		a.cands = cands
	}
	// A node is denied when none of its requests were granted.
	denied := a.denied[:0]
	for v := uint64(requested &^ granted); v != 0; v &= v - 1 {
		denied = append(denied, bits.TrailingZeros64(v))
	}
	a.grants, a.denied = grants, denied
	return Outcome{Master: master, Grants: grants, Denied: denied}
}

var _ Protocol = (*Arbiter)(nil)
