package ccfpr

import (
	"testing"
	"testing/quick"

	"ccredf/internal/core"
	"ccredf/internal/ring"
	"ccredf/internal/sched"
)

func mustArbiter(t *testing.T, n int, reuse bool) *Arbiter {
	t.Helper()
	a, err := NewArbiter(n, reuse)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

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

func TestNewArbiterRejectsBadRing(t *testing.T) {
	if _, err := NewArbiter(0, true); err == nil {
		t.Fatal("accepted 0-node ring")
	}
}

func TestName(t *testing.T) {
	if mustArbiter(t, 5, true).Name() != "cc-fpr" {
		t.Error("Name wrong")
	}
	if mustArbiter(t, 5, false).Name() != "cc-fpr/no-reuse" {
		t.Error("no-reuse Name wrong")
	}
	if mustArbiter(t, 5, true).Ring().Nodes() != 5 {
		t.Error("Ring wrong")
	}
}

// TestRoundRobinMaster: the master always rotates downstream, regardless of
// traffic — the simple clocking strategy.
func TestRoundRobinMaster(t *testing.T) {
	a := mustArbiter(t, 5, true)
	reqs := empty(5)
	reqs[3] = req(3, 31, ring.Node(4), 1) // urgent traffic at node 3
	master := 0
	wantSequence := []int{1, 2, 3, 4, 0}
	for _, want := range wantSequence {
		out := a.Arbitrate(core.FillLinks(a.Ring(), reqs), master)
		if out.Master != want {
			t.Fatalf("master after %d = %d, want %d (round robin)", master, out.Master, want)
		}
		master = out.Master
	}
}

// TestUpstreamBooksFirst reproduces the paper's criticism verbatim: "Node 1
// decides that it will send and books Links 1 and 2, regardless of what Node
// 2 may have to send." The downstream node's far more urgent message loses.
func TestUpstreamBooksFirst(t *testing.T) {
	a := mustArbiter(t, 5, true)
	reqs := empty(5)
	reqs[1] = req(1, 18, ring.Node(3), 1) // lax message, upstream (paper Node 2... booking order from master 0: node 1 first)
	reqs[2] = req(2, 31, ring.Node(3), 2) // urgent message, downstream
	out := a.Arbitrate(core.FillLinks(a.Ring(), reqs), 0)
	if !out.Granted(1) {
		t.Fatal("upstream lax request should book first under CC-FPR")
	}
	if out.Granted(2) {
		t.Fatal("downstream urgent request should be starved under CC-FPR")
	}
}

// TestPriorityInversionByClockPosition: the system's most urgent message is
// infeasible whenever the round-robin master lands inside its path.
func TestPriorityInversionByClockPosition(t *testing.T) {
	a := mustArbiter(t, 5, true)
	reqs := empty(5)
	reqs[3] = req(3, 31, ring.Node(1), 1) // spans nodes 4, 0, 1
	// Current master 4 → next master 0, which sits strictly inside the
	// path 3→1. The message must be denied despite being alone.
	out := a.Arbitrate(core.FillLinks(a.Ring(), reqs), 4)
	if out.Master != 0 {
		t.Fatalf("next master = %d, want 0", out.Master)
	}
	if out.Granted(3) {
		t.Fatal("message crossing the round-robin master must be denied (priority inversion)")
	}
	// One slot later (master 0 → next 1): path 3→1 terminates at 1, the new
	// master, which is allowed.
	out = a.Arbitrate(core.FillLinks(a.Ring(), reqs), 0)
	if !out.Granted(3) {
		t.Fatal("message should become feasible once the break leaves its path")
	}
}

func TestMasterBooksLast(t *testing.T) {
	a := mustArbiter(t, 5, true)
	reqs := empty(5)
	reqs[0] = req(0, 31, ring.Node(1), 1) // current master (urgent), books last; needs link 0
	reqs[3] = req(3, 2, ring.Node(1), 2)  // passes earlier, books links 3,4,0
	out := a.Arbitrate(core.FillLinks(a.Ring(), reqs), 0)
	if !out.Granted(3) {
		t.Fatal("node 3 books first in collection order")
	}
	if out.Granted(0) {
		t.Fatal("master books last and must lose the overlapping link")
	}
}

func TestSpatialReuseDisabledSingleGrant(t *testing.T) {
	a := mustArbiter(t, 5, false)
	reqs := empty(5)
	reqs[1] = req(1, 20, ring.Node(2), 1)
	reqs[3] = req(3, 20, ring.Node(4), 2)
	out := a.Arbitrate(core.FillLinks(a.Ring(), reqs), 0)
	if len(out.Grants) != 1 {
		t.Fatalf("no-reuse mode granted %d requests", len(out.Grants))
	}
	if !out.Granted(1) {
		t.Fatal("first node in collection order should win without reuse")
	}
}

func TestNonOverlappingBothGranted(t *testing.T) {
	a := mustArbiter(t, 5, true)
	reqs := empty(5)
	reqs[1] = req(1, 20, ring.Node(2), 1) // link 1
	reqs[3] = req(3, 20, ring.Node(4), 2) // link 3
	out := a.Arbitrate(core.FillLinks(a.Ring(), reqs), 0)
	if len(out.Grants) != 2 {
		t.Fatalf("want both disjoint requests granted, got %+v", out)
	}
}

func TestNoTrafficRotatesAnyway(t *testing.T) {
	a := mustArbiter(t, 5, true)
	out := a.Arbitrate(empty(5), 2)
	if out.Master != 3 {
		t.Fatalf("master = %d, want 3: CC-FPR rotates even when idle", out.Master)
	}
	if len(out.Grants) != 0 {
		t.Fatal("no grants expected")
	}
}

// TestInvariantsProperty: grants remain link-disjoint and within the cut
// ring of the next master, under random request sets.
func TestInvariantsProperty(t *testing.T) {
	const n = 8
	a := mustArbiter(t, n, true)
	r := ring.MustNew(n)
	f := func(prios [n]uint8, destsRaw [n]uint8, curMaster uint8) bool {
		reqs := make([]core.Request, n)
		for i := range reqs {
			prio := prios[i] % 32
			dest := int(destsRaw[i]) % n
			if dest == i {
				prio = 0
			}
			reqs[i] = core.Request{Node: i, Prio: prio, Class: sched.PrioClass(prio), MsgID: int64(i + 1)}
			if prio != 0 {
				reqs[i].Dests = ring.Node(dest)
			}
		}
		cm := int(curMaster) % n
		out := a.Arbitrate(core.FillLinks(a.Ring(), reqs), cm)
		if out.Master != r.Next(cm) {
			return false
		}
		var used ring.LinkSet
		for _, g := range out.Grants {
			if used.Overlaps(g.Links) {
				return false
			}
			used = used.Union(g.Links)
			if r.Span(g.Node, g.Dests) > n-r.Dist(out.Master, g.Node) {
				return false
			}
		}
		// Granted ∪ denied = all non-empty requests.
		total := len(out.Grants) + len(out.Denied)
		nonEmpty := 0
		for _, q := range reqs {
			if !q.Empty() {
				nonEmpty++
			}
		}
		return total == nonEmpty
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkArbitrate(b *testing.B) {
	a, _ := NewArbiter(16, true)
	reqs := make([]core.Request, 16)
	for i := range reqs {
		reqs[i] = req(i, uint8(17+i%15), ring.Node((i+3)%16), int64(i))
	}
	core.FillLinks(a.Ring(), reqs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Arbitrate(reqs, i%16)
	}
}
