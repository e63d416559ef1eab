// Package sched implements the scheduling machinery of the CCR-EDF network:
// traffic classes and the deadline-to-priority mapping of Table 1, EDF-ordered
// message queues, logical real-time connections, and the online admission
// control of Section 6 (Equations 5 and 6).
package sched

import (
	"math"
	"math/bits"

	"ccredf/internal/ring"
	"ccredf/internal/timing"
)

// Class is a traffic class, in increasing order of importance. Messages that
// are part of logical real-time connections always have higher priority than
// any other service; best-effort messages are sent only when no real-time
// message is queued locally, and non-real-time messages only when nothing
// else is queued (paper Section 3).
type Class int

const (
	// ClassNone means no traffic (reserved priority level 0).
	ClassNone Class = iota
	// ClassNonRealTime is the non-real-time message service (level 1).
	ClassNonRealTime
	// ClassBestEffort is the best-effort message service (levels 2–16).
	ClassBestEffort
	// ClassRealTime is the logical real-time connection service
	// (levels 17–31).
	ClassRealTime
)

// String returns a short class name.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassNonRealTime:
		return "nrt"
	case ClassBestEffort:
		return "be"
	case ClassRealTime:
		return "rt"
	default:
		return "class?"
	}
}

// Priority-level allocation of Table 1.
const (
	PrioNothing    = 0  // reserved: nothing to send
	PrioNonRT      = 1  // non-real-time traffic
	PrioBEMin      = 2  // best effort, longest laxity
	PrioBEMax      = 16 // best effort, shortest laxity
	PrioRTMin      = 17 // logical real-time connection, longest laxity
	PrioRTMax      = 31 // logical real-time connection, shortest laxity
	classLevels    = 15 // levels per mapped class
	maxLaxityIndex = classLevels - 1
)

// MapMode selects how deadlines become arbitration priorities.
type MapMode int

const (
	// Map5Bit is the paper's wire format: laxity is mapped logarithmically
	// onto the 5-bit priority field of the request (Table 1). Resolution is
	// higher the closer a message is to its deadline.
	Map5Bit MapMode = iota
	// MapExact is an idealised mode with unbounded priority resolution:
	// the arbiter compares absolute deadlines directly (classes still rank
	// above each other). The paper leaves the mapping function out of
	// scope; MapExact gives the EDF ideal that Map5Bit approximates, and
	// experiment E7 quantifies the difference.
	MapExact
)

// String names the mode.
func (m MapMode) String() string {
	if m == Map5Bit {
		return "5bit"
	}
	return "exact"
}

// MapPriority maps a message's class and current laxity (time remaining to
// its network-level deadline) to the 5-bit wire priority of Table 1, given
// the slot length. The mapping within a class is logarithmic in whole slots
// of laxity: priority = classMax − ⌊log₂(laxitySlots + 1)⌋, clamped to the
// class's band, so resolution increases as the deadline approaches. Negative
// laxity (an already-late message) maps to the class's highest level.
func MapPriority(c Class, laxity, slot timing.Time) uint8 {
	switch c {
	case ClassNone:
		return PrioNothing
	case ClassNonRealTime:
		return PrioNonRT
	}
	if slot <= 0 {
		slot = 1
	}
	if laxity == timing.Forever {
		// An unbounded deadline always saturates the laxity index; skipping
		// the division matters because sampling maps every queue head each
		// slot and steady-state backlogs are all unbounded.
		if c == ClassRealTime {
			return uint8(PrioRTMax - maxLaxityIndex)
		}
		return uint8(PrioBEMax - maxLaxityIndex)
	}
	laxSlots := int64(0)
	if laxity > 0 {
		laxSlots = int64(laxity / slot)
	}
	k := 0
	for v := laxSlots + 1; v > 1 && k < maxLaxityIndex; v >>= 1 {
		k++
	}
	if c == ClassRealTime {
		return uint8(PrioRTMax - k)
	}
	return uint8(PrioBEMax - k)
}

// PriorityUntil returns the first instant after now at which the wire
// priority of a class-c message with the given absolute deadline can change:
// MapPriority(c, deadline−t, slot) is the same for every t in [now, until),
// and differs at until when until is finite. A message in laxity band
// k ≥ 1 (⌊log₂(laxitySlots+1)⌋ = k, saturated at the top band) leaves it
// at deadline − (2^k−1)·slot + 1, the first instant with fewer than 2^k−1
// whole slots of laxity left. The priority never changes again — until is
// timing.Forever — for non-real-time and empty classes, unbounded deadlines,
// band 0 (less than one slot of laxity) and late messages.
func PriorityUntil(c Class, deadline, now, slot timing.Time) timing.Time {
	if (c != ClassRealTime && c != ClassBestEffort) || deadline == timing.Forever {
		return timing.Forever
	}
	if slot <= 0 {
		slot = 1
	}
	laxity := deadline - now
	if laxity < slot {
		return timing.Forever
	}
	k := bits.Len64(uint64(laxity/slot+1)) - 1
	if k > maxLaxityIndex {
		k = maxLaxityIndex
	}
	return deadline - (1<<k-1)*slot + 1
}

// PrioClass returns the traffic class that a wire priority level belongs to
// (the inverse of Table 1's band allocation).
func PrioClass(prio uint8) Class {
	switch {
	case prio == PrioNothing:
		return ClassNone
	case prio == PrioNonRT:
		return ClassNonRealTime
	case prio <= PrioBEMax:
		return ClassBestEffort
	default:
		return ClassRealTime
	}
}

// Message is one schedulable message: a user payload that occupies Slots
// consecutive (not necessarily adjacent) network slots. Real-time messages
// belong to a logical real-time connection and carry its network-level
// deadline (release + period; the paper assumes relative deadline = period).
type Message struct {
	// ID identifies the message uniquely within a simulation.
	ID int64
	// Conn is the logical real-time connection ID, 0 for non-RT traffic.
	Conn int
	// Class is the traffic class.
	Class Class
	// Src is the sending node.
	Src int
	// Dests is the destination set (single, multicast or broadcast).
	Dests ring.NodeSet
	// Release is when the message became available to send.
	Release timing.Time
	// Deadline is the absolute network-level deadline used for scheduling.
	// The user-level deadline adds the worst-case protocol latency
	// (Equation 3). Non-real-time messages use timing.Forever.
	Deadline timing.Time
	// Slots is the message size e in slots.
	Slots int
	// Sent counts fragments granted and transmitted so far.
	Sent int
	// Delivered counts fragments that arrived at the destination(s).
	Delivered int
	// Dropped counts fragments lost to injected faults and not
	// retransmitted (only without the reliable-transmission service).
	Dropped int
	// seq is a FIFO tiebreaker assigned by the queue; pos is the message's
	// current heap position, maintained by the queue. span and spos are the
	// message's link-segment span and its position in the queue's per-span
	// secondary index (maintained only when the index is enabled).
	seq  int64
	pos  int
	span int
	spos int
}

// MaxMessageSlots is the largest message size, in slots, the network
// carries: the data packet counts a message's fragments in 16 bits
// (wire.DataPacket.Total), so a longer message could not be framed.
const MaxMessageSlots = math.MaxUint16

// Remaining returns the number of fragments still to transmit.
func (m *Message) Remaining() int { return m.Slots - m.Sent }

// Laxity returns the time remaining to the network-level deadline at now
// (negative when late).
func (m *Message) Laxity(now timing.Time) timing.Time {
	if m.Deadline == timing.Forever {
		return timing.Forever
	}
	return m.Deadline - now
}

// before reports whether a should be served before b: higher class first,
// then earlier deadline, then FIFO order. This single ordering realises the
// paper's three per-class queues (real-time ahead of best effort ahead of
// non-real-time) with EDF inside each class.
func before(a, b *Message) bool {
	if a.Class != b.Class {
		return a.Class > b.Class
	}
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	return a.seq < b.seq
}

// Queue is a node-local message queue ordered by class and deadline (EDF).
// The zero value is an empty queue ready to use. An ID index keeps Find,
// Remove and grant handling O(log n) even when saturation grows the queue
// to thousands of messages. An optional per-span secondary index
// (EnableSecondaryIndex) additionally keeps SecondDistinct O(ring size)
// instead of O(queue length), and the queue caches its answer until its
// content next changes.
type Queue struct {
	heap []*Message
	next int64
	byID map[int64]*Message
	// topo and spans implement the secondary-request index: spans[s] is a
	// heap (ordered by before) of the queued messages whose transmission
	// occupies a segment of exactly s links. Nil until EnableSecondaryIndex.
	topo  ring.Ring
	spans [][]*Message
	// gen is the content generation: Push, Pop, Remove and
	// EnableSecondaryIndex bump it, and nothing else changes what Peek or
	// SecondDistinct answer, because no queued message's Class, Deadline,
	// Src, Dests or ID changes while it is queued. second is SecondDistinct's
	// answer at generation secondGen; the zero value holds the empty queue's
	// answer, nil, at generation 0.
	gen       uint64
	second    *Message
	secondGen uint64
}

// Gen returns the queue's content generation. Two calls that return the
// same generation bracket no Push, Pop, Remove or EnableSecondaryIndex, so
// anything derived from the queued messages' identities and ordering — the
// head, SecondDistinct — is unchanged between them.
func (q *Queue) Gen() uint64 { return q.gen }

// EnableSecondaryIndex switches on the per-span index that backs
// SecondDistinct, using r to map destination sets to link-segment spans.
// Messages already queued are indexed immediately. Without the index
// SecondDistinct always returns nil — the secondary-request extension is the
// only consumer, and it costs O(log n) per queue operation, so plain runs
// should leave it off.
func (q *Queue) EnableSecondaryIndex(r ring.Ring) {
	if q.spans != nil {
		return
	}
	q.topo = r
	q.spans = make([][]*Message, r.Nodes())
	q.gen++
	for _, m := range q.heap {
		q.spanPush(m)
	}
}

// Len returns the number of queued messages.
func (q *Queue) Len() int { return len(q.heap) }

// Push inserts m.
func (q *Queue) Push(m *Message) {
	if q.byID == nil {
		q.byID = make(map[int64]*Message)
	}
	m.seq = q.next
	q.next++
	m.pos = len(q.heap)
	q.heap = append(q.heap, m)
	q.byID[m.ID] = m
	q.gen++
	q.up(m.pos)
	if q.spans != nil {
		q.spanPush(m)
	}
}

// Peek returns the head message (highest class, earliest deadline) without
// removing it, or nil when empty.
func (q *Queue) Peek() *Message {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
}

// Second returns the second message in service order without removing
// anything, or nil when fewer than two messages are queued. In a binary
// heap the runner-up is always one of the root's children.
func (q *Queue) Second() *Message {
	switch len(q.heap) {
	case 0, 1:
		return nil
	case 2:
		return q.heap[1]
	}
	if before(q.heap[1], q.heap[2]) {
		return q.heap[1]
	}
	return q.heap[2]
}

// SecondDistinct returns the best queued message whose link segment is a
// strict subset of the head's, or nil when none exists. This is what a node
// advertises as its secondary request, and the filter is the arbitration's
// own: the master denies on link-segment overlap (used.Overlaps), not on
// destination-set identity. All of a node's transmissions leave on the same
// first link, so its candidate segments are nested prefixes — a runner-up
// whose segment covers the head's (equal or longer span) collides with
// `used` or the clock break whenever the head does and can never be granted
// in its place; only a strictly shorter segment, which frees the head's
// contested tail links, is worth the control-channel bits. (Filtering on
// destination-set difference, as this method once did, advertised
// same-segment and longer-segment runners-up that were dead on arrival.)
//
// The per-span index (EnableSecondaryIndex) answers the query in O(ring
// size), and the answer is cached until the queue's generation (Gen) next
// changes; without the index SecondDistinct returns nil.
func (q *Queue) SecondDistinct() *Message {
	if q.secondGen == q.gen {
		return q.second
	}
	head := q.Peek()
	if head == nil || q.spans == nil {
		return nil
	}
	var best *Message
	for s := 0; s < head.span; s++ {
		h := q.spans[s]
		if len(h) == 0 {
			continue
		}
		if c := h[0]; best == nil || before(c, best) {
			best = c
		}
	}
	q.second, q.secondGen = best, q.gen
	return best
}

// Pop removes and returns the head message, or nil when empty.
func (q *Queue) Pop() *Message {
	if len(q.heap) == 0 {
		return nil
	}
	head := q.heap[0]
	delete(q.byID, head.ID)
	q.gen++
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap[0].pos = 0
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	if q.spans != nil {
		q.spanRemove(head)
	}
	return head
}

// Remove deletes the message with the given ID and reports whether it was
// present.
func (q *Queue) Remove(id int64) bool {
	m, ok := q.byID[id]
	if !ok {
		return false
	}
	delete(q.byID, id)
	q.gen++
	i := m.pos
	last := len(q.heap) - 1
	q.heap[i] = q.heap[last]
	q.heap[i].pos = i
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if i < last {
		q.down(i)
		q.up(i)
	}
	if q.spans != nil {
		q.spanRemove(m)
	}
	return true
}

// Find returns the queued message with the given ID, or nil.
func (q *Queue) Find(id int64) *Message {
	return q.byID[id]
}

// Messages returns the queued messages in arbitrary (heap) order.
func (q *Queue) Messages() []*Message { return q.heap }

// swap exchanges two heap slots and keeps the position fields coherent.
func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].pos = i
	q.heap[j].pos = j
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !before(q.heap[i], q.heap[parent]) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && before(q.heap[l], q.heap[smallest]) {
			smallest = l
		}
		if r < n && before(q.heap[r], q.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}

// spanPush inserts m into the per-span secondary index. Spans outside the
// index (a degenerate destination set) fall into bucket 0, which
// SecondDistinct naturally treats as "shorter than any head".
func (q *Queue) spanPush(m *Message) {
	m.span = q.topo.Span(m.Src, m.Dests)
	if m.span < 0 || m.span >= len(q.spans) {
		m.span = 0
	}
	h := q.spans[m.span]
	m.spos = len(h)
	q.spans[m.span] = append(h, m)
	q.spanUp(m.span, m.spos)
}

// spanRemove deletes m from its span bucket.
func (q *Queue) spanRemove(m *Message) {
	h := q.spans[m.span]
	i, last := m.spos, len(h)-1
	h[i] = h[last]
	h[i].spos = i
	h[last] = nil
	q.spans[m.span] = h[:last]
	if i < last {
		q.spanDown(m.span, i)
		q.spanUp(m.span, i)
	}
}

func (q *Queue) spanSwap(s, i, j int) {
	h := q.spans[s]
	h[i], h[j] = h[j], h[i]
	h[i].spos = i
	h[j].spos = j
}

func (q *Queue) spanUp(s, i int) {
	h := q.spans[s]
	for i > 0 {
		parent := (i - 1) / 2
		if !before(h[i], h[parent]) {
			break
		}
		q.spanSwap(s, i, parent)
		i = parent
	}
}

func (q *Queue) spanDown(s, i int) {
	h := q.spans[s]
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && before(h[l], h[smallest]) {
			smallest = l
		}
		if r < n && before(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.spanSwap(s, i, smallest)
		i = smallest
	}
}
