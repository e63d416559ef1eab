package tdma

import (
	"testing"

	"ccredf/internal/core"
	"ccredf/internal/ring"
	"ccredf/internal/sched"
)

func req(node int, prio uint8, dests ring.NodeSet, msg int64) core.Request {
	return core.Request{Node: node, Class: sched.PrioClass(prio), Prio: prio, Dests: dests, MsgID: msg}
}

func empty(n int) []core.Request {
	reqs := make([]core.Request, n)
	for i := range reqs {
		reqs[i].Node = i
	}
	return reqs
}

func TestNewArbiterValidates(t *testing.T) {
	if _, err := NewArbiter(1, true); err == nil {
		t.Fatal("accepted 1-node ring")
	}
	a, err := NewArbiter(5, true)
	if err != nil || a.Name() != "tdma" || a.Ring().Nodes() != 5 {
		t.Fatalf("arbiter wrong: %v %v", a, err)
	}
	b, _ := NewArbiter(5, false)
	if b.Name() != "tdma/no-reuse" {
		t.Fatal("no-reuse name wrong")
	}
}

func TestOwnershipRotatesRegardlessOfTraffic(t *testing.T) {
	a, _ := NewArbiter(4, true)
	reqs := empty(4)
	reqs[2] = req(2, 31, ring.Node(3), 1) // urgent traffic only at node 2
	// Slot ownership cycles 1,2,3,0,1,… independent of priority.
	want := []int{1, 2, 3, 0, 1}
	for i, w := range want {
		out := a.Arbitrate(core.FillLinks(a.Ring(), reqs), 0)
		if out.Master != w {
			t.Fatalf("round %d: owner %d, want %d", i, out.Master, w)
		}
	}
}

func TestOwnerAlwaysGranted(t *testing.T) {
	a, _ := NewArbiter(4, true)
	reqs := empty(4)
	reqs[1] = req(1, 2, ring.Node(3), 1) // low priority, but owner of slot 1
	reqs[2] = req(2, 31, ring.Node(3), 2)
	out := a.Arbitrate(core.FillLinks(a.Ring(), reqs), 0) // owner = 1
	if !out.Granted(1) {
		t.Fatal("slot owner must be granted")
	}
	if out.Granted(2) {
		t.Fatal("overlapping non-owner must be denied")
	}
}

func TestUrgentNonOwnerWaitsForItsSlot(t *testing.T) {
	a, _ := NewArbiter(4, false) // no reuse: pure TDMA
	reqs := empty(4)
	reqs[3] = req(3, 31, ring.Node(0), 1)
	waits := 0
	for {
		out := a.Arbitrate(core.FillLinks(a.Ring(), reqs), 0)
		if out.Granted(3) {
			break
		}
		waits++
		if waits > 4 {
			t.Fatal("node 3 never got its slot")
		}
	}
	if waits != 2 { // owners 1, 2, then 3
		t.Fatalf("urgent message waited %d rounds, want 2 (pure TDMA latency)", waits)
	}
}

func TestSpatialReuseAfterOwner(t *testing.T) {
	a, _ := NewArbiter(6, true)
	reqs := empty(6)
	reqs[1] = req(1, 10, ring.Node(2), 1) // owner of the next slot, link 1
	reqs[3] = req(3, 10, ring.Node(4), 2) // disjoint, link 3
	out := a.Arbitrate(core.FillLinks(a.Ring(), reqs), 0)
	if len(out.Grants) != 2 {
		t.Fatalf("want owner + disjoint rider, got %+v", out)
	}
}

func TestNoReuseSingleGrant(t *testing.T) {
	a, _ := NewArbiter(6, false)
	reqs := empty(6)
	reqs[1] = req(1, 10, ring.Node(2), 1)
	reqs[3] = req(3, 10, ring.Node(4), 2)
	out := a.Arbitrate(core.FillLinks(a.Ring(), reqs), 0)
	if len(out.Grants) != 1 || !out.Granted(1) {
		t.Fatalf("pure TDMA must grant only the owner: %+v", out)
	}
}

func TestGrantsStayFeasibleAndDisjoint(t *testing.T) {
	a, _ := NewArbiter(8, true)
	r := ring.MustNew(8)
	reqs := empty(8)
	for i := 0; i < 8; i++ {
		reqs[i] = req(i, uint8(17+i), ring.Node((i+3)%8), int64(i+1))
	}
	for round := 0; round < 16; round++ {
		out := a.Arbitrate(core.FillLinks(a.Ring(), reqs), 0)
		var used ring.LinkSet
		for _, g := range out.Grants {
			if used.Overlaps(g.Links) {
				t.Fatal("overlapping grants")
			}
			used = used.Union(g.Links)
			if r.Span(g.Node, g.Dests) > 8-r.Dist(out.Master, g.Node) {
				t.Fatal("grant crosses the clock break")
			}
		}
	}
}
