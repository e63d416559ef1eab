package core

import (
	"fmt"
	"slices"
	"testing"

	"ccredf/internal/ring"
	"ccredf/internal/rng"
	"ccredf/internal/sched"
	"ccredf/internal/timing"
)

// randRequest draws a request from a deliberately small value space so that
// priority, node, deadline and ID collisions all occur and every tie-break
// level of the comparator is exercised.
func randRequest(src *rng.Source, nodes int) Request {
	return Request{
		Node:     src.Intn(nodes),
		Prio:     uint8(src.Intn(32)),
		Deadline: timing.Time(src.Intn(4)) * timing.Microsecond,
		MsgID:    int64(src.Intn(4)),
	}
}

// sameKey reports whether the comparator is allowed to call x and y equal:
// every field it consults matches. Dests is not part of the order.
func sameKey(mode sched.MapMode, x, y Request) bool {
	if x.Node != y.Node || x.Deadline != y.Deadline || x.MsgID != y.MsgID {
		return false
	}
	if mode == sched.MapExact {
		return sched.PrioClass(x.Prio) == sched.PrioClass(y.Prio)
	}
	return x.Prio == y.Prio
}

func sign(v int) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}

// TestCompareStrictTotalOrder checks, over randomized request slates, that
// the arbitration comparator is a strict total order — the property the
// arbiter's sort and the whole "highest-priority requester wins" election
// rest on: reflexive equality, antisymmetry, transitivity, and totality
// (equality only for requests the order genuinely cannot distinguish).
func TestCompareStrictTotalOrder(t *testing.T) {
	for _, mode := range []sched.MapMode{sched.Map5Bit, sched.MapExact} {
		t.Run(mode.String(), func(t *testing.T) {
			a := mustArbiter(t, 8, mode, true)
			src := rng.New(42)
			const slate = 24
			for round := 0; round < 400; round++ {
				reqs := make([]Request, slate)
				for i := range reqs {
					reqs[i] = randRequest(src, 8)
				}
				for _, x := range reqs {
					if a.compare(x, x) != 0 {
						t.Fatalf("compare(x,x) = %d for %+v", a.compare(x, x), x)
					}
				}
				for _, x := range reqs {
					for _, y := range reqs {
						xy, yx := a.compare(x, y), a.compare(y, x)
						if sign(xy) != -sign(yx) {
							t.Fatalf("antisymmetry: compare(%+v,%+v)=%d but reverse=%d", x, y, xy, yx)
						}
						if xy == 0 && !sameKey(mode, x, y) {
							t.Fatalf("totality: distinguishable requests compare equal: %+v vs %+v", x, y)
						}
					}
				}
				// Transitivity over sampled triples (full n³ would dominate
				// the test's runtime without adding coverage).
				for k := 0; k < 200; k++ {
					x, y, z := reqs[src.Intn(slate)], reqs[src.Intn(slate)], reqs[src.Intn(slate)]
					xy, yz, xz := a.compare(x, y), a.compare(y, z), a.compare(x, z)
					if xy < 0 && yz < 0 && xz >= 0 {
						t.Fatalf("transitivity: x<y<z but compare(x,z)=%d\nx=%+v\ny=%+v\nz=%+v", xz, x, y, z)
					}
					if xy == 0 && yz == 0 && xz != 0 {
						t.Fatalf("transitivity of equality broken\nx=%+v\ny=%+v\nz=%+v", x, y, z)
					}
				}
			}
		})
	}
}

// insertionOrder is the arbitration order by definition: a stable insertion
// sort of the slate's non-empty requests under compare. It returns their
// slate indices.
func insertionOrder(a *Arbiter, reqs []Request) []int {
	var idx []int
	for i, r := range reqs {
		if !r.Empty() {
			idx = append(idx, i)
		}
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && a.compare(reqs[idx[j]], reqs[idx[j-1]]) < 0; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

// keyOrder returns the slate indices in the order the arbiter's keys sort.
func keyOrder(a *Arbiter, reqs []Request) []int {
	a.buildKeys(reqs)
	keys := slices.Clone(a.keys)
	slices.SortFunc(keys, func(x, y orderKey) int {
		switch {
		case x.less(y):
			return -1
		case y.less(x):
			return 1
		}
		return 0
	})
	idx := make([]int, len(keys))
	for i, k := range keys {
		idx[i] = k.index()
	}
	return idx
}

// randSlate builds a network-shaped slate: one primary per node at index
// node, then (with secondaries) one secondary per node at index n+node.
// Values come from small spaces so priorities, deadlines and message IDs
// collide across nodes; tie forces a node's secondary to share its primary's
// priority ("prio") or deadline ("deadline") as well.
func randSlate(src *rng.Source, n int, secondaries bool, tie string) []Request {
	slate := n
	if secondaries {
		slate = 2 * n
	}
	reqs := make([]Request, slate)
	for i := range reqs {
		node := i % n
		if src.Intn(5) == 0 {
			reqs[i] = Request{Node: node}
			continue
		}
		reqs[i] = Request{
			Node:     node,
			Prio:     uint8(1 + src.Intn(31)),
			Deadline: timing.Time(src.Intn(6)) * timing.Microsecond,
			Dests:    ring.Node((node + 1 + src.Intn(n-1)) % n),
			MsgID:    int64(src.Intn(6)),
		}
		switch src.Intn(8) {
		case 0, 1:
			reqs[i].Deadline = timing.Forever
		case 2:
			reqs[i].Deadline = -reqs[i].Deadline // keys must order signed deadlines
		}
		if i >= n && !reqs[node].Empty() {
			switch tie {
			case "prio":
				reqs[i].Prio = reqs[node].Prio
			case "deadline":
				reqs[i].Prio, reqs[i].Deadline = reqs[node].Prio, reqs[node].Deadline
			}
		}
	}
	return reqs
}

// TestKeyOrderMatchesCompare checks that sorting precomputed order keys
// reproduces the insertion sort under compare exactly, in both mapping
// modes, on network-shaped slates with and without secondary requests and
// with forced same-node ties.
func TestKeyOrderMatchesCompare(t *testing.T) {
	for _, mode := range []sched.MapMode{sched.Map5Bit, sched.MapExact} {
		for _, n := range []int{2, 8, 32, 64} {
			for _, sec := range []bool{false, true} {
				for _, tie := range []string{"none", "prio", "deadline"} {
					a := mustArbiter(t, n, mode, true)
					src := rng.New(uint64(n)*7 + 1)
					for round := 0; round < 300; round++ {
						reqs := randSlate(src, n, sec, tie)
						want, got := insertionOrder(a, reqs), keyOrder(a, reqs)
						if !slices.Equal(got, want) {
							t.Fatalf("%v n=%d secondaries=%v tie=%s round %d:\nkey order   %v\ncompare order %v\nslate %+v",
								mode, n, sec, tie, round, got, want, reqs)
						}
					}
				}
			}
		}
	}
}

// TestKeyOrderArbitrarySlates covers slates outside the network's shape:
// any number of requests per node, in any position, including exact
// duplicates (which keep slate order, as the stable insertion sort does).
func TestKeyOrderArbitrarySlates(t *testing.T) {
	for _, mode := range []sched.MapMode{sched.Map5Bit, sched.MapExact} {
		a := mustArbiter(t, 8, mode, true)
		src := rng.New(9)
		for round := 0; round < 2000; round++ {
			reqs := make([]Request, 1+src.Intn(40))
			for i := range reqs {
				reqs[i] = randRequest(src, 4)
				reqs[i].Dests = ring.Node(7)
			}
			if want, got := insertionOrder(a, reqs), keyOrder(a, reqs); !slices.Equal(got, want) {
				t.Fatalf("%v round %d:\nkey order     %v\ncompare order %v\nslate %+v", mode, round, got, want, reqs)
			}
		}
	}
}

// referenceArbitrate is arbitration by definition: the paper's master walks
// the slate sorted under compare (insertionOrder) and grants greedily — the
// top request always, every later one when spatial reuse is on, its node
// holds no grant yet, its path avoids the new clock break and its links are
// disjoint from every earlier grant.
func referenceArbitrate(a *Arbiter, reqs []Request, curMaster int) Outcome {
	order := insertionOrder(a, reqs)
	if len(order) == 0 {
		return Outcome{Master: curMaster}
	}
	out := Outcome{Master: reqs[order[0]].Node}
	var used ring.LinkSet
	var granted, requested ring.NodeSet
	for i, idx := range order {
		r := reqs[idx]
		requested = requested.Add(r.Node)
		links := a.ring.PathLinks(r.Node, r.Dests)
		if i > 0 && (granted.Contains(r.Node) || !a.spatialReuse ||
			!a.ring.Feasible(r.Node, r.Dests, out.Master) || used.Overlaps(links)) {
			continue
		}
		used = used.Union(links)
		granted = granted.Add(r.Node)
		out.Grants = append(out.Grants, Grant{Node: r.Node, Dests: r.Dests, Links: links, MsgID: r.MsgID})
	}
	for v := 0; v < 64; v++ {
		if requested.Contains(v) && !granted.Contains(v) {
			out.Denied = append(out.Denied, v)
		}
	}
	return out
}

// varyDests rewrites some destination sets of a slate: multicast sets of
// random members, and self-only sets, whose span of 0 occupies no link.
func varyDests(src *rng.Source, n int, reqs []Request) {
	for i := range reqs {
		r := &reqs[i]
		if r.Empty() {
			continue
		}
		switch src.Intn(6) {
		case 0:
			r.Dests = ring.Node(r.Node)
		case 1, 2:
			for k := src.Intn(4); k >= 0; k-- {
				r.Dests = r.Dests.Add(src.Intn(n))
			}
		}
	}
}

// TestSelectionMatchesSortedWalk checks that Arbitrate, which selects
// grants instead of sorting the slate, decides exactly what the sorted
// greedy walk decides: the same master, the same grants in the same order,
// the same denied nodes.
func TestSelectionMatchesSortedWalk(t *testing.T) {
	check := func(t *testing.T, a *Arbiter, reqs []Request, curMaster int, what string) {
		t.Helper()
		want := referenceArbitrate(a, reqs, curMaster)
		got := a.Arbitrate(FillLinks(a.ring, reqs), curMaster)
		if got.Master != want.Master || !slices.Equal(got.Grants, want.Grants) || !slices.Equal(got.Denied, want.Denied) {
			t.Fatalf("%s (master %d):\nselection %+v\nsorted walk %+v\nslate %+v", what, curMaster, got, want, reqs)
		}
	}
	for _, mode := range []sched.MapMode{sched.Map5Bit, sched.MapExact} {
		for _, reuse := range []bool{true, false} {
			for _, n := range []int{2, 3, 8, 32, 64} {
				a := mustArbiter(t, n, mode, reuse)
				src := rng.New(uint64(n)*13 + 5)
				for _, sec := range []bool{false, true} {
					for _, tie := range []string{"none", "prio", "deadline"} {
						for round := 0; round < 150; round++ {
							reqs := randSlate(src, n, sec, tie)
							if round%2 == 1 {
								varyDests(src, n, reqs)
							}
							what := fmt.Sprintf("%v reuse=%v n=%d secondaries=%v tie=%s round %d", mode, reuse, n, sec, tie, round)
							check(t, a, reqs, src.Intn(n), what)
						}
					}
				}
			}
			// Slates outside the network's shape: any number of requests
			// per node, in any position, including exact duplicates.
			a := mustArbiter(t, 8, mode, reuse)
			src := rng.New(17)
			for round := 0; round < 1000; round++ {
				reqs := make([]Request, src.Intn(40))
				for i := range reqs {
					reqs[i] = randRequest(src, 8)
					reqs[i].Dests = ring.Node(src.Intn(8))
				}
				varyDests(src, 8, reqs)
				check(t, a, reqs, src.Intn(8), fmt.Sprintf("%v reuse=%v arbitrary slate round %d", mode, reuse, round))
			}
		}
	}
}

// TestArbitrateZeroAlloc checks that a warmed-up arbiter allocates nothing
// per round, with secondaries in the slate.
func TestArbitrateZeroAlloc(t *testing.T) {
	for _, mode := range []sched.MapMode{sched.Map5Bit, sched.MapExact} {
		a := mustArbiter(t, 32, mode, true)
		reqs := randSlate(rng.New(3), 32, true, "prio")
		a.Arbitrate(FillLinks(a.ring, reqs), 0)
		if allocs := testing.AllocsPerRun(100, func() { a.Arbitrate(reqs, 1) }); allocs != 0 {
			t.Fatalf("%v: %v allocs per Arbitrate, want 0", mode, allocs)
		}
	}
}
