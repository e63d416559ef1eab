package ccredf_test

import (
	"strings"
	"testing"

	"ccredf"
	"ccredf/internal/obs"
)

func TestTDMAProtocolViaFacade(t *testing.T) {
	cfg := ccredf.DefaultConfig(8)
	cfg.Protocol = ccredf.TDMA
	cfg.CheckInvariants = true
	net, err := ccredf.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.SubmitMessage(ccredf.ClassBestEffort, 3, ccredf.Node(5), 1, 0); err != nil {
		t.Fatal(err)
	}
	net.Run(ccredf.Millisecond)
	s := net.Snapshot()
	if s.Protocol != "tdma/no-reuse" && s.Protocol != "tdma" {
		t.Fatalf("protocol = %q", s.Protocol)
	}
	if s.MessagesDelivered != 1 || s.Violations != 0 {
		t.Fatalf("snapshot: %+v", s)
	}
}

func TestSecondaryRequestsViaFacade(t *testing.T) {
	cfg := ccredf.DefaultConfig(8)
	cfg.SecondaryRequests = true
	cfg.CheckInvariants = true
	net, err := ccredf.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := net.Params()
	for i := 0; i < 4; i++ {
		if _, err := net.OpenConnection(ccredf.Connection{
			Src: i * 2, Dests: ccredf.Node((i*2 + 3) % 8), Period: 10 * p.SlotTime(), Slots: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	net.Run(ccredf.Time(1000) * p.SlotTime())
	s := net.Snapshot()
	if s.UserMisses != 0 || s.Violations != 0 {
		t.Fatalf("extension broke guarantees: %+v", s)
	}
}

func TestHeteroLinksViaFacade(t *testing.T) {
	cfg := ccredf.DefaultConfig(5)
	cfg.Params.LinkLengthsM = []float64{5, 40, 10, 80, 15}
	net, err := ccredf.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.OpenConnection(ccredf.Connection{
		Src: 0, Dests: ccredf.Node(3), Period: 10 * net.Params().SlotTime(), Slots: 1,
	}); err != nil {
		t.Fatal(err)
	}
	net.Run(ccredf.Millisecond)
	if net.Metrics().UserDeadlineMisses.Value() != 0 {
		t.Fatal("misses on hetero ring")
	}
}

func TestUnboundedTraceViaFacade(t *testing.T) {
	cfg := ccredf.DefaultConfig(8)
	cfg.TraceCapacity = -1
	net, err := ccredf.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Run(ccredf.Millisecond)
	if net.Trace() == nil || net.Trace().Dropped() != 0 {
		t.Fatal("unbounded trace should drop nothing")
	}
	if net.Trace().Len() == 0 {
		t.Fatal("trace empty")
	}
}

func TestTraceReplayViaFacade(t *testing.T) {
	net, err := ccredf.New(ccredf.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	events, err := ccredf.ParseTrace(strings.NewReader(
		"at_slots,src,dst,slots,class,rel_deadline_slots\n0,0,4,1,rt,20\n3,2,6,1,be,100\n"))
	if err != nil {
		t.Fatal(err)
	}
	submitted, rejected := net.Replay(events)
	net.Run(ccredf.Millisecond)
	if *submitted != 2 || *rejected != 0 {
		t.Fatalf("replay submitted=%d rejected=%d", *submitted, *rejected)
	}
	if net.Metrics().MessagesDelivered.Value() != 2 {
		t.Fatal("replayed messages not delivered")
	}
}

func TestAllToAllViaFacade(t *testing.T) {
	net, err := ccredf.New(ccredf.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := net.NewAllToAll(ccredf.Nodes(0, 2, 5), 1)
	if err != nil {
		t.Fatal(err)
	}
	var makespan ccredf.Time
	if err := ex.Start(func(m ccredf.Time) { makespan = m }); err != nil {
		t.Fatal(err)
	}
	net.Run(5 * ccredf.Millisecond)
	if ex.Outstanding() != 0 || makespan == 0 {
		t.Fatalf("exchange incomplete: %d left, makespan %v", ex.Outstanding(), makespan)
	}
}

func TestRecommendPayloadViaFacade(t *testing.T) {
	payload, ok := ccredf.RecommendPayload(8, 100*ccredf.Microsecond)
	if !ok || payload < 4096 {
		t.Fatalf("RecommendPayload = %d, %v", payload, ok)
	}
}

// TestFacadeCheckersDeclareInterests checks that the built-in checkers ask
// only for the kinds they consume: a facade network with the wire, data and
// invariant checks attached never builds the N per-slot request-sample
// events, while an observer without declared interests still gets them.
func TestFacadeCheckersDeclareInterests(t *testing.T) {
	cfg := ccredf.DefaultConfig(8)
	net, err := ccredf.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if net.Wants(obs.KindRequestSampled) {
		t.Fatal("default facade network wants KindRequestSampled")
	}
	if !net.Wants(obs.KindArbitration) {
		t.Fatal("default facade network does not want KindArbitration (wire check)")
	}
	cfg.DataCheck, cfg.CheckInvariants = true, true
	if net, err = ccredf.New(cfg); err != nil {
		t.Fatal(err)
	}
	if net.Wants(obs.KindRequestSampled) {
		t.Fatal("facade network with data and invariant checks wants KindRequestSampled")
	}
	net.Attach(ccredf.ObserverFunc(func(*ccredf.Event) {}))
	if !net.Wants(obs.KindRequestSampled) {
		t.Fatal("an observer without declared interests does not receive KindRequestSampled")
	}
}
