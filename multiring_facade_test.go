package ccredf_test

import (
	"testing"

	"ccredf"
)

// TestNewMultiInstrumentsEachRing checks that a ring of a multi-ring fabric
// gets the instrumentation its own Config asks for, as a single-ring network
// does: ring 0 traces and data-checks its fragments, ring 1 does neither.
func TestNewMultiInstrumentsEachRing(t *testing.T) {
	spec := ccredf.TopologySpec{
		Rings:   []int{4, 4},
		Bridges: []ccredf.TopologyBridge{{RingA: 0, NodeA: 3, RingB: 1, NodeB: 0}},
	}
	cfg := ccredf.DefaultMultiConfig(spec, 1)
	for i := range cfg.Rings {
		// A payload too long for the data packet's 16-bit length field:
		// every fragment the data-channel check sees fails it, so the
		// ring's WireErrors counts exactly its checked fragments.
		cfg.Rings[i].Params.SlotPayloadBytes = 1<<16 + 64
	}
	cfg.Rings[0].TraceCapacity = -1
	cfg.Rings[0].DataCheck = true
	net, err := ccredf.NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := net.RingNetwork(0), net.RingNetwork(1)
	for _, r := range []*ccredf.Network{r0, r1} {
		if _, err := r.SubmitMessage(ccredf.ClassBestEffort, 1, ccredf.Node(2), 3, 0); err != nil {
			t.Fatal(err)
		}
	}
	r0.RunSlots(20)
	if r0.Trace() == nil || r0.Trace().Len() == 0 {
		t.Fatal("ring 0 has TraceCapacity set but records no trace")
	}
	if r1.Trace() != nil {
		t.Fatal("ring 1 has no TraceCapacity but carries a tracer")
	}
	m0, m1 := r0.Metrics(), r1.Metrics()
	if m0.Grants.Value() == 0 || m1.Grants.Value() == 0 {
		t.Fatalf("no fragments sent (ring 0: %d, ring 1: %d)", m0.Grants.Value(), m1.Grants.Value())
	}
	if got, want := m0.WireErrors.Value(), m0.Grants.Value(); got != want {
		t.Fatalf("ring 0 data-checked %d of %d fragments", got, want)
	}
	if got := m1.WireErrors.Value(); got != 0 {
		t.Fatalf("ring 1 has DataCheck off but counted %d wire errors", got)
	}
}
