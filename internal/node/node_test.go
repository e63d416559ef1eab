package node

import (
	"testing"

	"ccredf/internal/core"
	"ccredf/internal/ring"
	"ccredf/internal/sched"
	"ccredf/internal/timing"
)

const slot = 5 * timing.Microsecond

// ring8 is the 8-node ring the tests' nodes sit on.
var ring8 = ring.MustNew(8)

func msg(id int64, src int, class sched.Class, deadline timing.Time, slots int) *sched.Message {
	return &sched.Message{
		ID: id, Src: src, Class: class,
		Dests: ring.Node((src + 1) % 8), Deadline: deadline, Slots: slots,
	}
}

func TestEnqueueValidation(t *testing.T) {
	n := New(ring8, 2)
	if err := n.Enqueue(msg(1, 3, sched.ClassRealTime, 100, 1)); err == nil {
		t.Fatal("accepted message with wrong source")
	}
	bad := msg(2, 2, sched.ClassRealTime, 100, 0)
	if err := n.Enqueue(bad); err == nil {
		t.Fatal("accepted zero-slot message")
	}
	noDest := msg(3, 2, sched.ClassRealTime, 100, 1)
	noDest.Dests = 0
	if err := n.Enqueue(noDest); err == nil {
		t.Fatal("accepted message without destinations")
	}
	if err := n.Enqueue(msg(4, 2, sched.ClassRealTime, 100, 1)); err != nil {
		t.Fatalf("rejected good message: %v", err)
	}
	if n.Enqueued != 1 || n.QueueLen() != 1 {
		t.Fatalf("counters wrong: %d enqueued, %d queued", n.Enqueued, n.QueueLen())
	}
}

func TestRequestEmptyQueue(t *testing.T) {
	n := New(ring8, 0)
	req, dropped := sampleReq(n, 0, slot, false)
	if !req.Empty() || req.Node != 0 || dropped != nil {
		t.Fatalf("empty queue request = %+v", req)
	}
}

func TestRequestHeadMapping(t *testing.T) {
	n := New(ring8, 1)
	m := msg(7, 1, sched.ClassRealTime, 100*slot, 2)
	if err := n.Enqueue(m); err != nil {
		t.Fatal(err)
	}
	req, _ := sampleReq(n, 98*slot, slot, false) // laxity 2 slots
	if req.MsgID != 7 || req.Class != sched.ClassRealTime {
		t.Fatalf("request = %+v", req)
	}
	want := sched.MapPriority(sched.ClassRealTime, 2*slot, slot)
	if req.Prio != want {
		t.Fatalf("Prio = %d, want %d", req.Prio, want)
	}
	if req.Deadline != 100*slot || req.Dests != m.Dests {
		t.Fatalf("request fields wrong: %+v", req)
	}
}

func TestRequestPrefersHigherClass(t *testing.T) {
	n := New(ring8, 0)
	_ = n.Enqueue(msg(1, 0, sched.ClassNonRealTime, timing.Forever, 1))
	_ = n.Enqueue(msg(2, 0, sched.ClassBestEffort, 500*slot, 1))
	_ = n.Enqueue(msg(3, 0, sched.ClassRealTime, 900*slot, 1))
	req, _ := sampleReq(n, 0, slot, false)
	if req.MsgID != 3 {
		t.Fatalf("head should be the RT message, got %d", req.MsgID)
	}
}

func TestRequestDropLate(t *testing.T) {
	n := New(ring8, 0)
	_ = n.Enqueue(msg(1, 0, sched.ClassRealTime, 10*slot, 1))  // late at t=20 slots
	_ = n.Enqueue(msg(2, 0, sched.ClassRealTime, 15*slot, 1))  // late too
	_ = n.Enqueue(msg(3, 0, sched.ClassRealTime, 100*slot, 1)) // alive
	req, dropped := sampleReq(n, 20*slot, slot, true)
	if len(dropped) != 2 {
		t.Fatalf("dropped %d, want 2", len(dropped))
	}
	if req.MsgID != 3 {
		t.Fatalf("surviving head = %d, want 3", req.MsgID)
	}
	if n.LateDropped != 2 {
		t.Fatalf("LateDropped = %d", n.LateDropped)
	}
	// Without dropLate, the late message is requested at max priority.
	n2 := New(ring8, 0)
	_ = n2.Enqueue(msg(1, 0, sched.ClassRealTime, 10*slot, 1))
	req, dropped = sampleReq(n2, 20*slot, slot, false)
	if req.MsgID != 1 || dropped != nil {
		t.Fatalf("late message should still be requested: %+v", req)
	}
	if req.Prio != sched.PrioRTMax {
		t.Fatalf("late message Prio = %d, want %d", req.Prio, sched.PrioRTMax)
	}
}

func TestDropLateSparesBestEffort(t *testing.T) {
	n := New(ring8, 0)
	_ = n.Enqueue(msg(1, 0, sched.ClassBestEffort, 10*slot, 1))
	req, dropped := sampleReq(n, 20*slot, slot, true)
	if req.MsgID != 1 || len(dropped) != 0 {
		t.Fatal("late best-effort traffic should not be dropped")
	}
}

func TestGrantConsumesFragments(t *testing.T) {
	n := New(ring8, 0)
	m := msg(5, 0, sched.ClassRealTime, 1000*slot, 3)
	_ = n.Enqueue(m)
	for i := 1; i <= 2; i++ {
		got := n.Grant(5)
		if got != m || got.Sent != i {
			t.Fatalf("grant %d: %+v", i, got)
		}
		if n.QueueLen() != 1 {
			t.Fatalf("message left queue early at fragment %d", i)
		}
	}
	if got := n.Grant(5); got.Sent != 3 {
		t.Fatalf("final grant Sent = %d", got.Sent)
	}
	if n.QueueLen() != 0 {
		t.Fatal("fully sent message should leave the queue")
	}
	if n.Grant(5) != nil {
		t.Fatal("grant for departed message should be nil")
	}
}

func TestGrantUnknownMessage(t *testing.T) {
	n := New(ring8, 0)
	if n.Grant(99) != nil {
		t.Fatal("grant for unknown message should be nil")
	}
}

func TestRestoreReinserts(t *testing.T) {
	n := New(ring8, 0)
	m := msg(5, 0, sched.ClassRealTime, 1000*slot, 1)
	_ = n.Enqueue(m)
	if n.Grant(5) == nil || n.QueueLen() != 0 {
		t.Fatal("setup failed")
	}
	n.Restore(m)
	if m.Sent != 0 {
		t.Fatalf("Sent = %d after restore", m.Sent)
	}
	if n.QueueLen() != 1 {
		t.Fatal("restore should re-insert the message")
	}
	// Restore when still queued must not duplicate.
	m2 := msg(6, 0, sched.ClassRealTime, 1000*slot, 2)
	_ = n.Enqueue(m2)
	n.Grant(6)
	n.Restore(m2)
	if n.QueueLen() != 2 {
		t.Fatalf("duplicate insert: len = %d", n.QueueLen())
	}
	// Sent never goes negative.
	n.Restore(m2)
	if m2.Sent != 0 {
		t.Fatalf("Sent = %d, want clamped 0", m2.Sent)
	}
}

func TestCancel(t *testing.T) {
	n := New(ring8, 0)
	_ = n.Enqueue(msg(1, 0, sched.ClassRealTime, 100, 1))
	if !n.Cancel(1) {
		t.Fatal("Cancel failed")
	}
	if n.Cancel(1) {
		t.Fatal("double Cancel succeeded")
	}
}

func TestQueuedInspection(t *testing.T) {
	n := New(ring8, 0)
	_ = n.Enqueue(msg(1, 0, sched.ClassRealTime, 100, 1))
	_ = n.Enqueue(msg(2, 0, sched.ClassRealTime, 200, 1))
	if len(n.Queued()) != 2 {
		t.Fatal("Queued() wrong")
	}
	if n.Index() != 0 {
		t.Fatal("Index() wrong")
	}
}

// sampleReq and sampleSec return what Request and SecondaryRequest write.
func sampleReq(n *Node, now, slot timing.Time, dropLate bool) (core.Request, []*sched.Message) {
	var req core.Request
	dropped := n.Request(&req, now, slot, dropLate)
	return req, dropped
}

func sampleSec(n *Node, now, slot timing.Time) core.Request {
	var req core.Request
	n.SecondaryRequest(&req, now, slot)
	return req
}
