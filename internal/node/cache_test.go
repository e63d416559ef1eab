package node

import (
	"fmt"
	"testing"

	"ccredf/internal/core"
	"ccredf/internal/ring"
	"ccredf/internal/rng"
	"ccredf/internal/sched"
	"ccredf/internal/timing"
)

// refNode is the cache-less specification of a node's collection entry: a
// plain list of the queued messages with their service-order sequence
// numbers, from which every sample recomputes the head (after discarding
// late real-time heads under dropLate), its priority, its link segment and
// the best queued message whose segment is strictly shorter than the head's.
type refNode struct {
	index     int
	r         ring.Ring
	secondary bool
	live      []*sched.Message
	seq       map[*sched.Message]int64
	next      int64
}

func (x *refNode) push(m *sched.Message) {
	x.live = append(x.live, m)
	x.seq[m] = x.next
	x.next++
}

func (x *refNode) remove(id int64) *sched.Message {
	for i, m := range x.live {
		if m.ID == id {
			x.live = append(x.live[:i], x.live[i+1:]...)
			return m
		}
	}
	return nil
}

// ahead is the service order: higher class, earlier deadline, then FIFO.
func (x *refNode) ahead(a, b *sched.Message) bool {
	if a.Class != b.Class {
		return a.Class > b.Class
	}
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	return x.seq[a] < x.seq[b]
}

func (x *refNode) head() *sched.Message {
	var best *sched.Message
	for _, m := range x.live {
		if best == nil || x.ahead(m, best) {
			best = m
		}
	}
	return best
}

func (x *refNode) request(m *sched.Message, now, slot timing.Time) core.Request {
	if m == nil {
		return core.Request{Node: x.index}
	}
	lax := timing.Time(timing.Forever)
	if m.Deadline != timing.Forever {
		lax = m.Deadline - now
	}
	return core.Request{
		Node: x.index, Class: m.Class, Prio: sched.MapPriority(m.Class, lax, slot),
		Deadline: m.Deadline, Dests: m.Dests, MsgID: m.ID, Links: x.r.PathLinks(x.index, m.Dests),
	}
}

// sample returns the primary request, the IDs dropped as late, and the
// secondary request at now.
func (x *refNode) sample(now, slot timing.Time, dropLate bool) (core.Request, []int64, core.Request) {
	var dropped []int64
	h := x.head()
	for dropLate && h != nil && h.Class == sched.ClassRealTime && h.Deadline < now {
		x.remove(h.ID)
		dropped = append(dropped, h.ID)
		h = x.head()
	}
	var second *sched.Message
	if x.secondary && h != nil {
		span := x.r.Span(x.index, h.Dests)
		for _, m := range x.live {
			if m != h && x.r.Span(x.index, m.Dests) < span && (second == nil || x.ahead(m, second)) {
				second = m
			}
		}
	}
	return x.request(h, now, slot), dropped, x.request(second, now, slot)
}

// TestRequestCacheMatchesRecomputation drives random Enqueue, Grant,
// Restore, Cancel and Drain operations through a node while time advances —
// in steps of one tick, one slot and across laxity-band edges, with
// occasional look-backs and samples under a different slot length — and
// checks after every operation that the node's (possibly cached) Request and
// SecondaryRequest equal the cache-less specification, sampled twice so the
// second answer comes from the cache. Each workload runs with DropLate on or
// off and the secondary index on (switched on part-way, with entries
// already cached) or off.
func TestRequestCacheMatchesRecomputation(t *testing.T) {
	src := rng.New(77)
	for workload := 0; workload < 1500; workload++ {
		nodes := 3 + src.Intn(14)
		r := ring.MustNew(nodes)
		self := src.Intn(nodes)
		dropLate := src.Intn(2) == 0
		indexAt := -1
		if src.Intn(2) == 0 {
			indexAt = src.Intn(20)
		}
		slot := []timing.Time{1, timing.DefaultParams(8).SlotTime(), 7919}[src.Intn(3)]
		n := New(r, self)
		ref := &refNode{index: self, r: r, seq: make(map[*sched.Message]int64)}
		now := timing.Time(src.Intn(1000))
		nextID := int64(1)
		// granted pairs the node's and the reference's copy of each message
		// a grant has touched, for Restore.
		var granted [][2]*sched.Message

		check := func(op string, at, slot timing.Time) {
			t.Helper()
			wantP, wantDrop, wantS := ref.sample(at, slot, dropLate)
			for i := 0; i < 2; i++ {
				what := fmt.Sprintf("workload %d (N=%d dropLate=%v index=%v slot=%d) after %s, sample %d at %d",
					workload, nodes, dropLate, ref.secondary, slot, op, i+1, at)
				got, dropped := sampleReq(n, at, slot, dropLate)
				if got != wantP {
					t.Fatalf("%s: Request = %+v, recomputed %+v", what, got, wantP)
				}
				if i == 1 {
					wantDrop = nil
				}
				if len(dropped) != len(wantDrop) {
					t.Fatalf("%s: dropped %d messages, recomputation drops %v", what, len(dropped), wantDrop)
				}
				for k, m := range dropped {
					if m.ID != wantDrop[k] {
						t.Fatalf("%s: dropped %d, recomputation drops %v", what, m.ID, wantDrop)
					}
				}
				if got := sampleSec(n, at, slot); got != wantS {
					t.Fatalf("%s: SecondaryRequest = %+v, recomputed %+v", what, got, wantS)
				}
			}
		}

		for step := 0; step < 60; step++ {
			if step == indexAt {
				n.EnableSecondaryIndex()
				ref.secondary = true
			}
			var op string
			switch k := src.Intn(20); {
			case k < 8:
				op = "enqueue"
				class := []sched.Class{sched.ClassNonRealTime, sched.ClassBestEffort, sched.ClassRealTime, sched.ClassRealTime}[src.Intn(4)]
				var deadline timing.Time
				switch src.Intn(5) {
				case 0:
					deadline = timing.Forever
				case 1:
					deadline = now - timing.Time(src.Intn(3))*slot - timing.Time(src.Intn(2)) // late, or due now
				case 2:
					deadline = now + timing.Time(src.Intn(4*int(slot)+1))
				default:
					// On (or one tick either side of) a band edge 2^k−1
					// slots ahead.
					deadline = now + (1<<src.Intn(16)-1)*slot + timing.Time(src.Intn(3)-1)
				}
				if class == sched.ClassNonRealTime {
					deadline = timing.Forever
				}
				dests := ring.Node((self + 1 + src.Intn(nodes-1)) % nodes)
				if src.Intn(4) == 0 {
					dests = dests.Add((self + 1 + src.Intn(nodes-1)) % nodes)
				}
				slots := 1 + src.Intn(3)
				mk := func() *sched.Message {
					return &sched.Message{ID: nextID, Class: class, Src: self, Dests: dests, Deadline: deadline, Slots: slots}
				}
				mn, mr := mk(), mk()
				nextID++
				if err := n.Enqueue(mn); err != nil {
					t.Fatal(err)
				}
				ref.push(mr)
			case k < 12:
				op = "grant"
				id := int64(1 + src.Intn(int(nextID)))
				mn := n.Grant(id)
				var mr *sched.Message
				for _, m := range ref.live {
					if m.ID == id {
						mr = m
					}
				}
				if (mn == nil) != (mr == nil) {
					t.Fatalf("workload %d: Grant(%d) = %v, reference holds %v", workload, id, mn, mr)
				}
				if mr != nil {
					mr.Sent++
					if mr.Remaining() <= 0 {
						ref.remove(id)
					}
					granted = append(granted, [2]*sched.Message{mn, mr})
				}
			case k < 14:
				op = "restore"
				if len(granted) == 0 {
					continue
				}
				p := granted[src.Intn(len(granted))]
				n.Restore(p[0])
				mr := p[1]
				if mr.Sent--; mr.Sent < 0 {
					mr.Sent = 0
				}
				if !contains(ref.live, mr) {
					ref.push(mr)
				}
			case k < 17:
				op = "cancel"
				id := int64(1 + src.Intn(int(nextID)))
				if got, want := n.Cancel(id), ref.remove(id) != nil; got != want {
					t.Fatalf("workload %d: Cancel(%d) = %v, reference %v", workload, id, got, want)
				}
			case k < 18:
				op = "drain"
				if got, want := len(n.Drain()), len(ref.live); got != want {
					t.Fatalf("workload %d: Drain removed %d, reference holds %d", workload, got, want)
				}
				ref.live = ref.live[:0]
			default:
				op = "idle"
			}
			switch src.Intn(6) {
			case 0:
				now++
			case 1:
				now += slot
			case 2:
				now += timing.Time(src.Intn(3 * int(slot)))
			case 3:
				now += (1 << src.Intn(14)) * slot
			}
			check(op, now, slot)
			switch src.Intn(10) {
			case 0:
				// A look-back: the cached interval starts where it was filled.
				check(op+" (look-back)", now-timing.Time(1+src.Intn(2*int(slot))), slot)
			case 1:
				check(op+" (other slot length)", now, slot+1)
			}
		}
	}
}

func contains(ms []*sched.Message, m *sched.Message) bool {
	for _, x := range ms {
		if x == m {
			return true
		}
	}
	return false
}
