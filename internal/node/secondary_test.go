package node

import (
	"testing"

	"ccredf/internal/ring"
	"ccredf/internal/sched"
	"ccredf/internal/timing"
)

// secNode builds a node with the secondary index enabled over an 8-node ring,
// the configuration the network uses when SecondaryRequests is on.
func secNode(t *testing.T) *Node {
	t.Helper()
	n := New(ring8, 0)
	n.EnableSecondaryIndex()
	return n
}

func TestSecondaryRequestEmptyAndSingle(t *testing.T) {
	n := secNode(t)
	if req := sampleSec(n, 0, slot); !req.Empty() {
		t.Fatal("empty queue should yield empty secondary")
	}
	_ = n.Enqueue(msg(1, 0, sched.ClassRealTime, 100*slot, 1))
	if req := sampleSec(n, 0, slot); !req.Empty() {
		t.Fatal("single message should yield empty secondary")
	}
}

func TestSecondaryRequestWithoutIndex(t *testing.T) {
	n := New(ring8, 0) // index never enabled
	_ = n.Enqueue(msg(1, 0, sched.ClassRealTime, 10*slot, 1))
	_ = n.Enqueue(msg(2, 0, sched.ClassRealTime, 20*slot, 1))
	if req := sampleSec(n, 0, slot); !req.Empty() {
		t.Fatal("secondary without index should be empty")
	}
}

func TestSecondaryRequestPicksDistinctSegment(t *testing.T) {
	n := secNode(t)
	head := msg(1, 0, sched.ClassRealTime, 10*slot, 1)
	head.Dests = ring.Node(4)
	sameSeg := msg(2, 0, sched.ClassRealTime, 20*slot, 1)
	sameSeg.Dests = ring.Node(4) // same destination as the head
	distinct := msg(3, 0, sched.ClassRealTime, 30*slot, 1)
	distinct.Dests = ring.Node(2)
	for _, m := range []*sched.Message{head, sameSeg, distinct} {
		if err := n.Enqueue(m); err != nil {
			t.Fatal(err)
		}
	}
	req := sampleSec(n, 0, slot)
	if req.MsgID != 3 {
		t.Fatalf("secondary = msg %d, want 3 (the best distinct segment)", req.MsgID)
	}
	if req.Dests != ring.Node(2) {
		t.Fatalf("secondary dests = %v", req.Dests)
	}
	// Priority reflects the secondary's own laxity.
	want := sched.MapPriority(sched.ClassRealTime, 30*slot, slot)
	if req.Prio != want {
		t.Fatalf("secondary prio = %d, want %d", req.Prio, want)
	}
}

// TestSecondaryRequestCoveringSegmentRejected is the regression test for the
// segment-overlap filter: a runner-up whose link segment strictly COVERS the
// head's (longer span, different destination set) used to be advertised under
// the old destination-set-difference filter, yet arbitration can never grant
// it when the head is denied — every path from one source shares link 0 — so
// the advert wasted control-channel bits. It must not be offered.
func TestSecondaryRequestCoveringSegmentRejected(t *testing.T) {
	n := secNode(t)
	head := msg(1, 0, sched.ClassRealTime, 10*slot, 1)
	head.Dests = ring.Node(2) // span 2
	covering := msg(2, 0, sched.ClassRealTime, 20*slot, 1)
	covering.Dests = ring.Node(4) // span 4: distinct dests, covering segment
	_ = n.Enqueue(head)
	_ = n.Enqueue(covering)
	if req := sampleSec(n, 0, slot); !req.Empty() {
		t.Fatalf("covering-segment runner-up must not be advertised, got %+v", req)
	}
	// A strictly shorter segment alongside it is still offered.
	short := msg(3, 0, sched.ClassRealTime, 30*slot, 1)
	short.Dests = ring.Node(1) // span 1 ⊂ head's span 2
	_ = n.Enqueue(short)
	if req := sampleSec(n, 0, slot); req.MsgID != 3 {
		t.Fatalf("secondary = msg %d, want 3 (the shorter segment)", req.MsgID)
	}
}

func TestSecondaryRequestAllSameSegment(t *testing.T) {
	n := secNode(t)
	for i := int64(1); i <= 4; i++ {
		m := msg(i, 0, sched.ClassRealTime, timing.Time(i)*10*slot, 1)
		m.Dests = ring.Node(5)
		_ = n.Enqueue(m)
	}
	if req := sampleSec(n, 0, slot); !req.Empty() {
		t.Fatalf("all-same-segment queue should yield empty secondary, got msg %d", req.MsgID)
	}
}

func TestSecondaryRequestCrossClass(t *testing.T) {
	n := secNode(t)
	rtm := msg(1, 0, sched.ClassRealTime, 10*slot, 1)
	rtm.Dests = ring.Node(4)
	bem := msg(2, 0, sched.ClassBestEffort, 50*slot, 1)
	bem.Dests = ring.Node(2)
	_ = n.Enqueue(rtm)
	_ = n.Enqueue(bem)
	req := sampleSec(n, 0, slot)
	if req.MsgID != 2 || req.Class != sched.ClassBestEffort {
		t.Fatalf("secondary should be the BE message: %+v", req)
	}
}
