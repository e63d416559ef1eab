package sched

import (
	"testing"

	"ccredf/internal/ring"
	"ccredf/internal/rng"
	"ccredf/internal/timing"
)

// naiveSecondDistinct is the specification SecondDistinct's per-span index
// must match: scan every queued message and pick the best (by service order)
// whose link segment is strictly shorter than the head's.
func naiveSecondDistinct(r ring.Ring, q *Queue) *Message {
	head := q.Peek()
	if head == nil {
		return nil
	}
	headSpan := r.Span(head.Src, head.Dests)
	var best *Message
	for _, m := range q.Messages() {
		if m == head || r.Span(m.Src, m.Dests) >= headSpan {
			continue
		}
		if best == nil || before(m, best) {
			best = m
		}
	}
	return best
}

// randDests draws a nonempty destination set excluding src.
func randDests(src *rng.Source, self, nodes int) ring.NodeSet {
	var d ring.NodeSet
	for d.Empty() {
		for i := 0; i < nodes; i++ {
			if i != self && src.Intn(4) == 0 {
				d = d.Add(i)
			}
		}
	}
	return d
}

// TestSecondDistinctDifferential drives 1k randomized workloads through two
// queues fed identical operation streams — one with the secondary index
// enabled, one without — and checks after every operation that (a) the
// indexed SecondDistinct equals the naive full scan, asked twice so the
// second answer comes from the queue's cache, and (b) the index never
// perturbs the primary service order, including under cancellation (Remove),
// expiry-style draining (Pop) and re-push of a message that left the queue
// (what node.Restore does after a lost fragment).
func TestSecondDistinctDifferential(t *testing.T) {
	src := rng.New(2026)
	for workload := 0; workload < 1000; workload++ {
		nodes := 3 + src.Intn(14) // [3,16]
		r, err := ring.New(nodes)
		if err != nil {
			t.Fatal(err)
		}
		self := src.Intn(nodes)
		var indexed, plain Queue
		indexed.EnableSecondaryIndex(r)
		nextID := int64(1)
		var live []int64
		// gone holds messages that left the queues, as (indexed, plain)
		// pairs, for re-push.
		var gone [][2]*Message

		check := func(op string) {
			t.Helper()
			want := naiveSecondDistinct(r, &indexed)
			for i := 0; i < 2; i++ {
				if got := indexed.SecondDistinct(); got != want {
					t.Fatalf("workload %d after %s (query %d): SecondDistinct = %+v, naive scan = %+v (queue len %d)",
						workload, op, i+1, got, want, indexed.Len())
				}
			}
			if plain.SecondDistinct() != nil {
				t.Fatalf("workload %d: SecondDistinct answered without the index", workload)
			}
			ih, ph := indexed.Peek(), plain.Peek()
			if (ih == nil) != (ph == nil) || (ih != nil && ih.ID != ph.ID) {
				t.Fatalf("workload %d after %s: heads diverge between indexed and plain queues", workload, op)
			}
		}

		for op := 0; op < 60; op++ {
			switch v := src.Intn(10); {
			case v < 6 || len(live) == 0: // push
				m := &Message{
					ID:       nextID,
					Src:      self,
					Class:    Class(src.Intn(3)),
					Deadline: timing.Time(src.Intn(8)) * timing.Microsecond,
					Dests:    randDests(src, self, nodes),
					Slots:    1,
				}
				// Identical payloads, distinct Message values per queue: seq
				// and heap positions are per-queue state.
				m2 := *m
				indexed.Push(m)
				plain.Push(&m2)
				live = append(live, nextID)
				nextID++
				check("push")
			case v < 8: // pop (service / expiry drain)
				a, b := indexed.Pop(), plain.Pop()
				if (a == nil) != (b == nil) || (a != nil && a.ID != b.ID) {
					t.Fatalf("workload %d: Pop order diverges with index on (%v vs %v)", workload, a, b)
				}
				if a != nil {
					live = removeID(live, a.ID)
					gone = append(gone, [2]*Message{a, b})
				}
				check("pop")
			case v < 9: // cancel a random live message
				id := live[src.Intn(len(live))]
				a, b := indexed.Find(id), plain.Find(id)
				if indexed.Remove(id) != plain.Remove(id) {
					t.Fatalf("workload %d: Remove(%d) disagrees between queues", workload, id)
				}
				live = removeID(live, id)
				gone = append(gone, [2]*Message{a, b})
				check("remove")
			case len(gone) > 0: // re-push a message that left
				i := src.Intn(len(gone))
				m := gone[i]
				gone = append(gone[:i], gone[i+1:]...)
				indexed.Push(m[0])
				plain.Push(m[1])
				live = append(live, m[0].ID)
				check("re-push")
			}
		}
		// Drain fully: the complete service order must match with and
		// without the index.
		for indexed.Len() > 0 {
			a, b := indexed.Pop(), plain.Pop()
			if b == nil || a.ID != b.ID {
				t.Fatalf("workload %d: drain order diverges", workload)
			}
			check("drain")
		}
		if plain.Len() != 0 {
			t.Fatalf("workload %d: plain queue retains %d messages", workload, plain.Len())
		}
	}
}

func removeID(ids []int64, id int64) []int64 {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}
