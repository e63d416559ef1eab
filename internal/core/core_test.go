package core

import (
	"testing"
	"testing/quick"

	"ccredf/internal/ring"
	"ccredf/internal/sched"
	"ccredf/internal/timing"
)

func mustArbiter(t *testing.T, n int, mode sched.MapMode, reuse bool) *Arbiter {
	t.Helper()
	a, err := NewArbiter(n, mode, reuse)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func rt(node int, prio uint8, deadline timing.Time, dests ring.NodeSet, msg int64) Request {
	return Request{Node: node, Class: sched.ClassRealTime, Prio: prio, Deadline: deadline, Dests: dests, MsgID: msg}
}

func TestNewArbiterRejectsBadRing(t *testing.T) {
	if _, err := NewArbiter(1, sched.Map5Bit, true); err == nil {
		t.Fatal("accepted 1-node ring")
	}
	if _, err := NewArbiter(65, sched.Map5Bit, true); err == nil {
		t.Fatal("accepted 65-node ring")
	}
}

func TestName(t *testing.T) {
	a := mustArbiter(t, 5, sched.Map5Bit, true)
	if a.Name() != "ccr-edf" {
		t.Errorf("Name() = %q", a.Name())
	}
	a2 := mustArbiter(t, 5, sched.Map5Bit, false)
	if a2.Name() != "ccr-edf/no-reuse" {
		t.Errorf("Name() = %q", a2.Name())
	}
	if a.Ring().Nodes() != 5 {
		t.Error("Ring() wrong")
	}
}

func TestHighestPriorityBecomesMaster(t *testing.T) {
	a := mustArbiter(t, 5, sched.Map5Bit, true)
	reqs := []Request{
		rt(0, 20, 0, ring.Node(1), 1),
		rt(2, 31, 0, ring.Node(4), 2), // highest
		rt(3, 25, 0, ring.Node(4), 3),
	}
	out := a.Arbitrate(FillLinks(a.ring, reqs), 0)
	if out.Master != 2 {
		t.Fatalf("Master = %d, want 2", out.Master)
	}
	if !out.Granted(2) {
		t.Fatal("master's own request denied")
	}
	if len(out.Grants) == 0 || out.Grants[0].Node != 2 {
		t.Fatal("master's grant must come first")
	}
}

func TestNoRequestsKeepsMaster(t *testing.T) {
	a := mustArbiter(t, 5, sched.Map5Bit, true)
	out := a.Arbitrate([]Request{{Node: 0}, {Node: 1}, {Node: 2}, {Node: 3}, {Node: 4}}, 3)
	if out.Master != 3 {
		t.Fatalf("Master = %d, want previous master 3", out.Master)
	}
	if len(out.Grants) != 0 || len(out.Denied) != 0 {
		t.Fatal("empty arbitration should grant and deny nothing")
	}
}

func TestIndexBreaksTies(t *testing.T) {
	a := mustArbiter(t, 5, sched.Map5Bit, true)
	reqs := []Request{
		rt(3, 31, 0, ring.Node(4), 1),
		rt(1, 31, 0, ring.Node(2), 2),
	}
	out := a.Arbitrate(FillLinks(a.ring, reqs), 0)
	if out.Master != 1 {
		t.Fatalf("tie should go to lower index: master = %d", out.Master)
	}
}

// TestFig2Scenario grants both transmissions of Figure 2 in one slot: node 0
// → node 2 and node 3 → {4, 0} (0-based) are link-disjoint.
func TestFig2Scenario(t *testing.T) {
	a := mustArbiter(t, 5, sched.Map5Bit, true)
	reqs := []Request{
		rt(0, 31, 0, ring.Node(2), 1),
		rt(3, 25, 0, ring.NodeSetOf(4, 0), 2),
	}
	out := a.Arbitrate(FillLinks(a.ring, reqs), 0)
	if out.Master != 0 {
		t.Fatalf("Master = %d, want 0", out.Master)
	}
	if len(out.Grants) != 2 {
		t.Fatalf("want both Fig. 2 transmissions granted, got %d grants (denied %v)", len(out.Grants), out.Denied)
	}
	if out.Grants[0].Links.Overlaps(out.Grants[1].Links) {
		t.Fatal("granted segments overlap")
	}
}

func TestSpatialReuseDisabledGrantsOnlyMaster(t *testing.T) {
	a := mustArbiter(t, 5, sched.Map5Bit, false)
	reqs := []Request{
		rt(0, 31, 0, ring.Node(2), 1),
		rt(3, 25, 0, ring.NodeSetOf(4, 0), 2),
	}
	out := a.Arbitrate(FillLinks(a.ring, reqs), 0)
	if len(out.Grants) != 1 || out.Grants[0].Node != 0 {
		t.Fatalf("analysis mode must grant exactly the master, got %+v", out)
	}
	if len(out.Denied) != 1 || out.Denied[0] != 3 {
		t.Fatalf("Denied = %v, want [3]", out.Denied)
	}
}

func TestOverlappingSegmentDenied(t *testing.T) {
	a := mustArbiter(t, 5, sched.Map5Bit, true)
	reqs := []Request{
		rt(0, 31, 0, ring.Node(3), 1), // links 0,1,2
		rt(1, 30, 0, ring.Node(2), 2), // link 1 — overlaps
		rt(3, 29, 0, ring.Node(4), 3), // link 3 — disjoint
	}
	out := a.Arbitrate(FillLinks(a.ring, reqs), 0)
	if !out.Granted(0) || out.Granted(1) || !out.Granted(3) {
		t.Fatalf("grants wrong: %+v", out)
	}
}

func TestCrossingNewMasterDenied(t *testing.T) {
	a := mustArbiter(t, 5, sched.Map5Bit, true)
	// Master will be node 2. Node 1 → node 3 crosses the break at node 2.
	reqs := []Request{
		rt(2, 31, 0, ring.Node(3), 1),
		rt(1, 30, 0, ring.Node(3), 2),
	}
	out := a.Arbitrate(FillLinks(a.ring, reqs), 0)
	if out.Master != 2 {
		t.Fatalf("Master = %d", out.Master)
	}
	if out.Granted(1) {
		t.Fatal("request crossing the clock break must be denied")
	}
}

// TestPaperAntiExample reproduces the CC-FPR problem the paper fixes: "Node 1
// decides that it will send and books Links 1 and 2, regardless of what Node
// 2 may have to send." Under CCR-EDF the more urgent downstream node wins.
func TestPaperAntiExample(t *testing.T) {
	a := mustArbiter(t, 5, sched.Map5Bit, true)
	reqs := []Request{
		rt(0, 20, 0, ring.Node(2), 1), // paper's Node 1, lax deadline
		rt(1, 31, 0, ring.Node(2), 2), // paper's Node 2, very tight deadline
	}
	out := a.Arbitrate(FillLinks(a.ring, reqs), 0)
	if out.Master != 1 || !out.Granted(1) {
		t.Fatalf("urgent downstream node must win: %+v", out)
	}
}

func TestExactModeComparesDeadlines(t *testing.T) {
	a := mustArbiter(t, 5, sched.MapExact, true)
	// Same 5-bit priority; deadlines differ. Exact mode must pick the
	// earlier deadline even at a higher node index.
	reqs := []Request{
		rt(1, 31, 100*timing.Microsecond, ring.Node(2), 1),
		rt(3, 31, 50*timing.Microsecond, ring.Node(4), 2),
	}
	out := a.Arbitrate(FillLinks(a.ring, reqs), 0)
	if out.Master != 3 {
		t.Fatalf("exact mode Master = %d, want 3 (earlier deadline)", out.Master)
	}
}

func TestExactModeClassBandsStillApply(t *testing.T) {
	a := mustArbiter(t, 5, sched.MapExact, true)
	reqs := []Request{
		{Node: 1, Class: sched.ClassBestEffort, Prio: 16, Deadline: 10, Dests: ring.Node(2), MsgID: 1},
		{Node: 3, Class: sched.ClassRealTime, Prio: 17, Deadline: 1000, Dests: ring.Node(4), MsgID: 2},
	}
	out := a.Arbitrate(FillLinks(a.ring, reqs), 0)
	if out.Master != 3 {
		t.Fatalf("RT must outrank BE in exact mode: master = %d", out.Master)
	}
}

func TestExactModeTieBreaksByIndex(t *testing.T) {
	a := mustArbiter(t, 5, sched.MapExact, true)
	reqs := []Request{
		rt(4, 31, 100, ring.Node(0), 1),
		rt(2, 31, 100, ring.Node(3), 2),
	}
	out := a.Arbitrate(FillLinks(a.ring, reqs), 0)
	if out.Master != 2 {
		t.Fatalf("deadline tie should go to lower index: %d", out.Master)
	}
}

func TestBestEffortRidesAlongside(t *testing.T) {
	// Paper: "a best effort message uses the spatially reused capacity and
	// may be transmitted simultaneously as a logical real-time connection
	// message."
	a := mustArbiter(t, 5, sched.Map5Bit, true)
	reqs := []Request{
		rt(0, 31, 0, ring.Node(1), 1),
		{Node: 2, Class: sched.ClassBestEffort, Prio: 9, Dests: ring.Node(4), MsgID: 2},
	}
	out := a.Arbitrate(FillLinks(a.ring, reqs), 0)
	if len(out.Grants) != 2 {
		t.Fatalf("BE message should ride along: %+v", out)
	}
}

func TestGrantedSetAndDenied(t *testing.T) {
	a := mustArbiter(t, 5, sched.Map5Bit, true)
	reqs := []Request{
		rt(0, 31, 0, ring.Node(4), 1), // links 0..3
		rt(1, 30, 0, ring.Node(2), 2), // overlaps
		rt(2, 29, 0, ring.Node(3), 3), // overlaps
	}
	out := a.Arbitrate(FillLinks(a.ring, reqs), 0)
	if got := out.GrantedSet(); got != ring.Node(0) {
		t.Fatalf("GrantedSet = %v", got)
	}
	if len(out.Denied) != 2 {
		t.Fatalf("Denied = %v", out.Denied)
	}
}

// Invariants 1–3 of DESIGN.md, property-checked over random request sets.
func TestArbitrationInvariantsProperty(t *testing.T) {
	const n = 8
	a := mustArbiter(t, n, sched.Map5Bit, true)
	r := ring.MustNew(n)
	f := func(prios [n]uint8, destsRaw [n]uint8, curMaster uint8) bool {
		reqs := make([]Request, n)
		var expectedMaster = -1
		var bestPrio uint8
		for i := range reqs {
			prio := prios[i] % 32
			dest := int(destsRaw[i]) % n
			if dest == i {
				prio = 0 // no self-sends
			}
			reqs[i] = Request{
				Node:  i,
				Prio:  prio,
				Class: sched.PrioClass(prio),
				Dests: ring.Node(dest),
				MsgID: int64(i + 1),
			}
			if prio == 0 {
				reqs[i].Dests = 0
			}
			if prio > bestPrio {
				bestPrio = prio
				expectedMaster = i
			}
		}
		out := a.Arbitrate(FillLinks(a.ring, reqs), int(curMaster)%n)

		// Invariant 3: master is the highest-priority requester (lowest
		// index on ties) and is always granted.
		if expectedMaster >= 0 {
			if out.Master != expectedMaster {
				return false
			}
			if !out.Granted(expectedMaster) {
				return false
			}
		} else if out.Master != int(curMaster)%n {
			return false
		}

		// Invariant 1: grants pairwise link-disjoint, one grant per node.
		var used ring.LinkSet
		seen := map[int]bool{}
		for _, g := range out.Grants {
			if seen[g.Node] {
				return false
			}
			seen[g.Node] = true
			if used.Overlaps(g.Links) {
				return false
			}
			used = used.Union(g.Links)
			// Invariant 2: no grant crosses beyond the clock break (it may
			// terminate exactly at the master).
			if r.Span(g.Node, g.Dests) > n-r.Dist(out.Master, g.Node) {
				return false
			}
		}

		// Every non-empty request is either granted or denied, never both.
		for _, req := range reqs {
			if req.Empty() {
				continue
			}
			denied := false
			for _, d := range out.Denied {
				if d == req.Node {
					denied = true
				}
			}
			if denied == out.Granted(req.Node) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkArbitrate(b *testing.B) {
	a, _ := NewArbiter(16, sched.Map5Bit, true)
	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = rt(i, uint8(17+i%15), timing.Time(i), ring.Node((i+3)%16), int64(i))
	}
	FillLinks(a.ring, reqs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Arbitrate(reqs, i%16)
	}
}
