package scenario

import (
	"strings"
	"testing"
)

const multiSample = `{
  "topology": {
    "rings": [8, 8, 8],
    "bridges": [
      {"ring_a": 0, "node_a": 3, "ring_b": 1, "node_b": 0},
      {"ring_a": 1, "node_a": 4, "ring_b": 2, "node_b": 1}
    ]
  },
  "horizon_slots": 4000,
  "seed": 7,
  "connections": [
    {"src": 1, "dests": [5], "period_slots": 20, "slots": 1}
  ],
  "cross_connections": [
    {"src_ring": 0, "src": 1, "dst_ring": 2, "dests": [5], "period_slots": 50, "slots": 1, "deadline_slots": 45},
    {"src_ring": 2, "src": 6, "dst_ring": 1, "dests": [2], "period_slots": 64, "slots": 1}
  ]
}`

func TestTopologyScenarioBuildAndRun(t *testing.T) {
	s, err := Load(strings.NewReader(multiSample))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if res.Net != nil {
		t.Fatal("multi scenario populated the single-ring Net")
	}
	if res.Multi == nil || len(res.Cross) != 2 {
		t.Fatalf("multi=%v cross=%d", res.Multi, len(res.Cross))
	}
	res.Multi.Run(res.Horizon)
	for i, cc := range res.Cross {
		st := cc.Stats()
		if st.Delivered == 0 {
			t.Errorf("cross connection %d delivered nothing", i)
		}
		if st.Misses != 0 || st.Expired != 0 {
			t.Errorf("cross connection %d: misses=%d expired=%d", i, st.Misses, st.Expired)
		}
	}
	// The plain workloads ran on ring 0.
	if res.Multi.Ring(0).Metrics().MessagesDelivered.Value() == 0 {
		t.Error("ring-0 workload idle")
	}
}

// TestTopologyValidationErrors pins the field-qualified error style of the
// topology stanzas, including the explicit 64-node-per-ring limit on both
// the single-ring and per-topology-ring paths (the sets are 64-bit masks).
func TestTopologyValidationErrors(t *testing.T) {
	cases := []struct{ input, want string }{
		{`{"nodes": 65, "horizon_slots": 10}`,
			"nodes 65 outside [2,64]"},
		{`{"topology": {"rings": [8, 65]}, "horizon_slots": 10}`,
			"topology.rings[1]"},
		{`{"nodes": 8, "topology": {"rings": [8]}, "horizon_slots": 10}`,
			"mutually exclusive"},
		{`{"nodes": 8, "horizon_slots": 10, "cross_connections": [{"src_ring":0,"src":0,"dst_ring":0,"dests":[1],"period_slots":5,"slots":1}]}`,
			"cross_connections requires a topology"},
		{`{"nodes": 8, "horizon_slots": 10, "ring_faults": [{"ring": 0, "faults": {}}]}`,
			"ring_faults requires a topology"},
		{`{"topology": {"rings": [8, 8], "bridges": [{"ring_a":0,"node_a":1,"ring_b":1,"node_b":0}]}, "horizon_slots": 10, "link_lengths_m": [5,5,5,5,5,5,5,5]}`,
			"link_lengths_m is unsupported with a topology"},
		{`{"topology": {"rings": [8, 8], "bridges": [{"ring_a":0,"node_a":1,"ring_b":1,"node_b":0}]}, "horizon_slots": 10, "cross_connections": [{"src_ring":2,"src":0,"dst_ring":0,"dests":[1],"period_slots":5,"slots":1}]}`,
			"cross_connections[0].src_ring"},
		{`{"topology": {"rings": [8, 8], "bridges": [{"ring_a":0,"node_a":1,"ring_b":1,"node_b":0}]}, "horizon_slots": 10, "cross_connections": [{"src_ring":0,"src":9,"dst_ring":1,"dests":[1],"period_slots":5,"slots":1}]}`,
			"cross_connections[0].src"},
		{`{"topology": {"rings": [8, 8], "bridges": [{"ring_a":0,"node_a":1,"ring_b":1,"node_b":0}]}, "horizon_slots": 10, "ring_faults": [{"ring": 5, "faults": {}}]}`,
			"ring_faults[0].ring"},
		{`{"topology": {"rings": [8, 8]}, "horizon_slots": 10}`,
			"not connected"},
	}
	for _, c := range cases {
		_, err := Load(strings.NewReader(c.input))
		if err == nil {
			t.Errorf("accepted: %s", c.input)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("error %q does not contain %q", err, c.want)
		}
	}
}

// TestTopologyBuildsDeterministically: two builds and runs of the same
// multi-ring scenario must agree on every cross-connection counter.
func TestTopologyBuildsDeterministically(t *testing.T) {
	run := func() []int64 {
		s, err := Load(strings.NewReader(multiSample))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		res.Multi.Run(res.Horizon)
		var out []int64
		for _, cc := range res.Cross {
			st := cc.Stats()
			out = append(out, st.Released, st.Delivered, st.Expired, st.Misses)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("counter %d differs across identical runs: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestTopologyScenarioCopiesChecks pins that data_check and trace_capacity
// reach every ring of a topology, as they reach the single ring: a
// 70 000-byte slot payload overflows the data packet's 16-bit length field,
// so every checked fragment must count as a wire error.
func TestTopologyScenarioCopiesChecks(t *testing.T) {
	s, err := Load(strings.NewReader(`{
  "topology": {
    "rings": [6, 6],
    "bridges": [{"ring_a": 0, "node_a": 2, "ring_b": 1, "node_b": 0}]
  },
  "horizon_slots": 200,
  "slot_payload_bytes": 70000,
  "data_check": true,
  "trace_capacity": 100,
  "connections": [{"src": 1, "dests": [4], "period_slots": 10, "slots": 1}],
  "cross_connections": [
    {"src_ring": 0, "src": 1, "dst_ring": 1, "dests": [3], "period_slots": 20, "slots": 1}
  ]
}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	res.Multi.Run(res.Horizon)
	for i := 0; i < 2; i++ {
		rn := res.Multi.RingNetwork(i)
		if errs := rn.Metrics().WireErrors.Value(); errs == 0 {
			t.Errorf("ring %d: wire_errors = 0 with data_check on an oversized payload (%d grants)",
				i, rn.Metrics().Grants.Value())
		}
		if rn.Trace() == nil {
			t.Errorf("ring %d: trace_capacity set but no tracer attached", i)
		}
	}
}
