// Package node models one station on the CCR-EDF ring: its class-ordered
// local message queue, the request it contributes to the collection phase,
// and the bookkeeping that maps a grant back to a queued message when the
// distribution packet arrives.
//
// A node's collection entry is a cached value. The entry — priority, link
// reservation, destinations — changes only when the queue's content changes
// (sched.Queue.Gen) or the head's logarithmic laxity band ticks over
// (sched.PriorityUntil), so the node keeps its last primary and secondary
// request with the queue generation, slot length and time interval
// [from, until) they are exact for, and rebuilds one only when a sample
// falls outside them. Only the priority depends on time: a queued message's
// class, deadline, destinations and ID never change while it is queued. A
// real-time head's interval also ends at Deadline+1, the first instant
// DropLate would discard it. The cache is keyed on the slot length but not
// on Request's dropLate flag, which must be the same on every call (the
// owning network's DropLate).
package node

import (
	"fmt"

	"ccredf/internal/core"
	"ccredf/internal/ring"
	"ccredf/internal/sched"
	"ccredf/internal/timing"
)

// Node is one ring station. Create with New.
type Node struct {
	index int
	ring  ring.Ring
	queue sched.Queue
	// prim and sec cache the last Request and SecondaryRequest answers.
	prim, sec entry

	// Enqueued counts messages ever submitted at this node.
	Enqueued int64
	// LateDropped counts messages discarded because their network-level
	// deadline had already passed at request time (only when the owning
	// network runs with DropLate).
	LateDropped int64
}

// entry is a cached collection-phase request: req is the exact answer for
// any sample at a time in [from, until) while the queue stays at generation
// gen and the slot length is slot. The zero value holds nothing (its
// interval is empty).
type entry struct {
	req         core.Request
	gen         uint64
	slot        timing.Time
	from, until timing.Time
}

// valid reports whether the cached request is exact for a sample at now.
func (e *entry) valid(gen uint64, now, slot timing.Time) bool {
	return e.gen == gen && e.slot == slot && e.from <= now && now < e.until
}

// New returns a node with the given index on ring r.
func New(r ring.Ring, index int) *Node { return &Node{index: index, ring: r} }

// EnableSecondaryIndex switches on the queue's per-span index so
// SecondaryRequest can answer in O(ring size). The owning network enables it
// exactly when the secondary-request extension is configured; without it
// SecondaryRequest always returns an empty request.
func (n *Node) EnableSecondaryIndex() { n.queue.EnableSecondaryIndex(n.ring) }

// Index returns the node's position on the ring.
func (n *Node) Index() int { return n.index }

// QueueLen returns the number of locally queued messages.
func (n *Node) QueueLen() int { return n.queue.Len() }

// Queued returns the queued messages in arbitrary order (for inspection).
func (n *Node) Queued() []*sched.Message { return n.queue.Messages() }

// Enqueue adds m to the local queue. The message must originate here.
func (n *Node) Enqueue(m *sched.Message) error {
	if m.Src != n.index {
		return fmt.Errorf("node %d: message %d has source %d", n.index, m.ID, m.Src)
	}
	if m.Slots < 1 || m.Dests.Empty() {
		return fmt.Errorf("node %d: message %d is empty", n.index, m.ID)
	}
	n.queue.Push(m)
	n.Enqueued++
	return nil
}

// Request writes this node's collection-phase request at time now into dst:
// the head of the local queue mapped to a wire priority (Table 1), or an
// empty request when the queue is empty. When dropLate is set,
// already-late real-time messages are discarded instead of requested; the
// dropped messages are returned so the caller can account for them (nil
// when none were dropped, which is every sample served from the cache).
func (n *Node) Request(dst *core.Request, now, slot timing.Time, dropLate bool) []*sched.Message {
	if n.prim.valid(n.queue.Gen(), now, slot) {
		*dst = n.prim.req
		return nil
	}
	return n.refill(dst, now, slot, dropLate)
}

// refill recomputes the primary entry at now and writes it into dst.
func (n *Node) refill(dst *core.Request, now, slot timing.Time, dropLate bool) []*sched.Message {
	var dropped []*sched.Message
	head := n.queue.Peek()
	for dropLate && head != nil && head.Class == sched.ClassRealTime && head.Deadline < now {
		n.queue.Pop()
		n.LateDropped++
		dropped = append(dropped, head)
		head = n.queue.Peek()
	}
	n.prim = n.entryFor(head, now, slot)
	if head != nil && head.Class == sched.ClassRealTime && head.Deadline >= now && head.Deadline < n.prim.until {
		// From Deadline+1 on, DropLate discards this head instead.
		n.prim.until = head.Deadline + 1
	}
	*dst = n.prim.req
	return dropped
}

// SecondaryRequest writes into dst a request for the node's best queued message
// whose link segment is a strict subset of the head's — the protocol
// extension in which each node advertises two candidates per collection
// round so the master can pack spatial reuse better. (A runner-up whose
// segment covers the head's can never be granted when the head is denied,
// so it is not worth the bits; see Queue.SecondDistinct.) It writes an
// empty request when no such message is queued or the secondary index is
// not enabled.
func (n *Node) SecondaryRequest(dst *core.Request, now, slot timing.Time) {
	if !n.sec.valid(n.queue.Gen(), now, slot) {
		n.sec = n.entryFor(n.queue.SecondDistinct(), now, slot)
	}
	*dst = n.sec.req
}

// entryFor builds the cache entry advertising m at now (an empty request
// when m is nil), exact until its priority can next change.
func (n *Node) entryFor(m *sched.Message, now, slot timing.Time) entry {
	e := entry{req: core.Request{Node: n.index}, gen: n.queue.Gen(), slot: slot, from: now, until: timing.Forever}
	if m != nil {
		e.req = core.Request{
			Node:     n.index,
			Class:    m.Class,
			Prio:     sched.MapPriority(m.Class, m.Laxity(now), slot),
			Deadline: m.Deadline,
			Dests:    m.Dests,
			MsgID:    m.ID,
			Links:    n.ring.PathLinks(n.index, m.Dests),
		}
		e.until = sched.PriorityUntil(m.Class, m.Deadline, now, slot)
	}
	return e
}

// Grant consumes one granted slot for the message with the given ID: the
// node transmits the message's next fragment. It returns the message, or nil
// when the message is no longer queued (the slot is wasted). When the last
// fragment leaves, the message is removed from the queue; delivery
// confirmation is the network's concern.
func (n *Node) Grant(msgID int64) *sched.Message {
	m := n.queue.Find(msgID)
	if m == nil {
		return nil
	}
	m.Sent++
	if m.Remaining() <= 0 {
		n.queue.Remove(msgID)
	}
	return m
}

// Restore undoes one transmitted fragment of m after a loss is detected
// (reliable-transmission service): the fragment must be sent again. If the
// message had already left the queue it is re-inserted.
func (n *Node) Restore(m *sched.Message) {
	m.Sent--
	if m.Sent < 0 {
		m.Sent = 0
	}
	if n.queue.Find(m.ID) == nil {
		n.queue.Push(m)
	}
}

// Cancel removes the message with the given ID from the queue, reporting
// whether it was present.
func (n *Node) Cancel(msgID int64) bool { return n.queue.Remove(msgID) }

// Drain empties the queue and returns the removed messages in service order
// (highest class, earliest deadline first). The owning network uses it to
// expire the queue of a crashed node: everything the station held — or
// accumulated while it was dark — is lost with it.
func (n *Node) Drain() []*sched.Message {
	if n.queue.Len() == 0 {
		return nil
	}
	out := make([]*sched.Message, 0, n.queue.Len())
	for m := n.queue.Pop(); m != nil; m = n.queue.Pop() {
		out = append(out, m)
	}
	return out
}
