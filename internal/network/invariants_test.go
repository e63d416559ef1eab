package network_test

import (
	"strings"
	"testing"

	"ccredf/internal/ccfpr"
	"ccredf/internal/core"
	"ccredf/internal/network"
	"ccredf/internal/ring"
	"ccredf/internal/rng"
	"ccredf/internal/sched"
	"ccredf/internal/tdma"
	"ccredf/internal/timing"
	"ccredf/internal/traffic"
)

// runRandomTraffic drives a mixed random workload over the given protocol
// with CheckInvariants on and returns the metrics.
func runRandomTraffic(t *testing.T, proto core.Protocol, seed uint64) *network.Metrics {
	t.Helper()
	p := timing.DefaultParams(8)
	net, err := network.New(network.Config{Params: p, Protocol: proto, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	net.AttachWireCheck()
	net.AttachInvariantChecker()
	src := rng.New(seed)
	// Random RT connections (forced, to stress beyond admission), BE
	// Poisson and bursty NRT.
	for i := 0; i < 6; i++ {
		from := src.Intn(8)
		net.ForceConnection(sched.Connection{
			Src: from, Dests: ring.Node((from + 1 + src.Intn(7)) % 8),
			Period: timing.Time(3+src.Intn(20)) * p.SlotTime(), Slots: 1 + src.Intn(3),
		})
	}
	for i := 0; i < 8; i++ {
		traffic.Poisson{
			Node: i, Class: sched.ClassBestEffort,
			MeanInterarrival: timing.Time(2+src.Intn(10)) * p.SlotTime(),
			Slots:            1, MaxSlots: 4, RelDeadline: 100 * p.SlotTime(),
		}.Attach(net, src.Split())
	}
	traffic.Bursty{
		Node: 3, Class: sched.ClassNonRealTime,
		BurstInterarrival: p.SlotTime(), MeanBurstLen: 8,
		MeanIdle: 50 * p.SlotTime(), Slots: 2,
	}.Attach(net, src.Split())
	net.RunSlots(2000)
	return net.Metrics()
}

// TestInvariantsHoldUnderRandomTraffic checks DESIGN.md invariants 1-3 live
// across all three protocols and several seeds.
func TestInvariantsHoldUnderRandomTraffic(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		edf, err := core.NewArbiter(8, sched.Map5Bit, true)
		if err != nil {
			t.Fatal(err)
		}
		fpr, err := ccfpr.NewArbiter(8, true)
		if err != nil {
			t.Fatal(err)
		}
		td, err := tdma.NewArbiter(8, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, proto := range []core.Protocol{edf, fpr, td} {
			m := runRandomTraffic(t, proto, seed)
			if got := m.InvariantViolations.Value(); got != 0 {
				t.Fatalf("%s seed %d: %d invariant violations: %v",
					proto.Name(), seed, got, m.Violations)
			}
			if m.WireErrors.Value() != 0 {
				t.Fatalf("%s seed %d: wire errors", proto.Name(), seed)
			}
			if m.MessagesDelivered.Value() == 0 {
				t.Fatalf("%s seed %d delivered nothing", proto.Name(), seed)
			}
		}
	}
}

// brokenProtocol violates invariants on purpose to prove the checker sees
// real violations.
type brokenProtocol struct{ r ring.Ring }

func (b brokenProtocol) Name() string { return "broken" }

func (b brokenProtocol) Arbitrate(reqs []core.Request, curMaster int) core.Outcome {
	out := core.Outcome{Master: curMaster}
	for _, req := range reqs {
		if req.Empty() {
			continue
		}
		// Grant everything with overlapping full-ring link sets and the
		// wrong master: multiple invariant breaches at once.
		out.Grants = append(out.Grants, core.Grant{
			Node: req.Node, Dests: req.Dests,
			Links: ring.LinkSet(0xFF), MsgID: req.MsgID,
		})
	}
	return out
}

func TestInvariantCheckerDetectsViolations(t *testing.T) {
	p := timing.DefaultParams(8)
	net, err := network.New(network.Config{
		Params: p, Protocol: brokenProtocol{ring.MustNew(8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.AttachInvariantChecker()
	net.SubmitMessage(sched.ClassRealTime, 1, ring.Node(3), 2, timing.Millisecond)
	net.SubmitMessage(sched.ClassRealTime, 4, ring.Node(6), 2, timing.Millisecond)
	net.RunSlots(20)
	m := net.Metrics()
	if m.InvariantViolations.Value() == 0 {
		t.Fatal("checker missed deliberate violations")
	}
	if len(m.Violations) == 0 {
		t.Fatal("violation descriptions missing")
	}
}

// corruptLinks hands the wrapped arbiter a slate in which the first
// non-empty request's reservation field is off by one link, the fault the
// checker's independent recomputation of each request's segment exists for.
type corruptLinks struct{ core.Protocol }

func (c corruptLinks) Arbitrate(reqs []core.Request, curMaster int) core.Outcome {
	for i := range reqs {
		if !reqs[i].Empty() {
			reqs[i].Links ^= ring.Link(0)
			break
		}
	}
	return c.Protocol.Arbitrate(reqs, curMaster)
}

// TestInvariantCheckerRecomputesLinks checks that a request slate whose
// reservation field disagrees with the request's segment is flagged, for
// every protocol, with and without secondary requests.
func TestInvariantCheckerRecomputesLinks(t *testing.T) {
	p := timing.DefaultParams(8)
	edf, _ := core.NewArbiter(8, sched.Map5Bit, true)
	fpr, _ := ccfpr.NewArbiter(8, true)
	td, _ := tdma.NewArbiter(8, true)
	for _, proto := range []core.Protocol{edf, fpr, td} {
		for _, sec := range []bool{false, true} {
			net, err := network.New(network.Config{Params: p, Protocol: corruptLinks{proto}, SecondaryRequests: sec})
			if err != nil {
				t.Fatal(err)
			}
			net.AttachInvariantChecker()
			net.SubmitMessage(sched.ClassRealTime, 1, ring.Node(3), 2, timing.Millisecond)
			net.RunSlots(5)
			m := net.Metrics()
			if m.InvariantViolations.Value() == 0 || len(m.Violations) == 0 {
				t.Fatalf("%s secondaries=%v: corrupted reservation field not flagged", proto.Name(), sec)
			}
			if got := m.Violations[0]; !strings.Contains(got, "reserves links") {
				t.Fatalf("%s secondaries=%v: first violation %q, want the reservation mismatch", proto.Name(), sec, got)
			}
		}
	}
}
