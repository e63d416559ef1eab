package serve

import (
	"bytes"
	"context"
	"flag"
	"os"
	"strings"
	"testing"

	"ccredf/internal/sweep"
	"ccredf/scenario"
)

var updateShapes = flag.Bool("update-golden", false, "rewrite testdata/shapes.golden")

// shapesGrid covers every kind of sweep point: single ring, a bridged chain,
// churn, faults, the mode protocol with bounded bridge queues, a point whose
// fault plan names a node outside its ring, and an unknown protocol.
func shapesGrid() []sweep.Point {
	base := sweep.Grid([]string{"ccr-edf", "tdma"}, []int{8}, []float64{0.4}, []string{"uniform"}, []uint64{1})
	one := base[:1]
	pts := append([]sweep.Point(nil), base...)
	pts = append(pts, sweep.WithRings(one, 3)...)
	pts = append(pts, sweep.WithChurn(one, "rate=100000,hold=1000,seed=3")...)
	pts = append(pts, sweep.WithFaults(one, "coll=0.02,crash=2@100+200,seed=5")...)
	hot := sweep.Grid([]string{"ccr-edf"}, []int{8}, []float64{1.2}, []string{"uniform"}, []uint64{2})
	pts = append(pts, sweep.WithMode(sweep.WithRings(hot, 2), "window=32,dmiss=0.01,cmiss=0.02,bcap=2")...)
	warm := sweep.Grid([]string{"ccr-edf"}, []int{8}, []float64{0.9}, []string{"uniform"}, []uint64{2})
	pts = append(pts, sweep.WithChurn(sweep.WithMode(sweep.WithRings(warm, 2), "window=32,dmiss=0.01,cmiss=0.02,bcap=1"), "rate=200000,hold=2000")...)
	pts = append(pts, sweep.WithFaults(one, "crash=9@100")...)
	bad := base[0]
	bad.Protocol = "bogus"
	return append(pts, bad)
}

// shapesMulti is a bridged three-ring scenario with churn on ring 0, the mode
// protocol on every ring with one-deep bridge queues (so backpressure drops
// relays), and a bridge crash.
const shapesMulti = `{
  "topology": {
    "rings": [8, 8, 8],
    "bridges": [
      {"ring_a": 0, "node_a": 3, "ring_b": 1, "node_b": 0},
      {"ring_a": 1, "node_a": 4, "ring_b": 2, "node_b": 1}
    ]
  },
  "horizon_slots": 3000,
  "seed": 7,
  "churn": {"rate_per_sec": 100000, "mean_hold_us": 1000, "seed": 4},
  "mode": {"window_slots": 32, "degrade_miss": 0.01, "critical_miss": 0.02, "bridge_cap": 1},
  "ring_faults": [
    {"ring": 1, "faults": {"collection_drop_prob": 0.01, "crashes": [{"node": 0, "at_slot": 500, "restart_slot": 1500}]}}
  ],
  "connections": [
    {"src": 1, "dests": [5], "period_slots": 4, "slots": 2}
  ],
  "cross_connections": [
    {"src_ring": 0, "src": 1, "dst_ring": 2, "dests": [5], "period_slots": 32, "slots": 1},
    {"src_ring": 0, "src": 2, "dst_ring": 2, "dests": [6], "period_slots": 32, "slots": 1},
    {"src_ring": 0, "src": 4, "dst_ring": 2, "dests": [3], "period_slots": 32, "slots": 1},
    {"src_ring": 2, "src": 6, "dst_ring": 0, "dests": [2], "period_slots": 48, "slots": 1}
  ]
}`

// shapesSingle is a single-ring scenario with churn, faults and the mode
// protocol, so every per-run counter the server sums is live.
const shapesSingle = `{
  "nodes": 8,
  "horizon_slots": 3000,
  "seed": 5,
  "churn": {"rate_per_sec": 200000, "mean_hold_us": 2000, "seed": 6},
  "mode": {"window_slots": 32, "degrade_miss": 0.01, "critical_miss": 0.02},
  "faults": {"collection_drop_prob": 0.01, "handover_fail_prob": 0.01, "crashes": [{"node": 3, "at_slot": 200, "restart_slot": 600}], "seed": 2},
  "poisson": [
    {"node": 1, "mean_interarrival_slots": 1, "slots": 1, "rel_deadline_slots": 20},
    {"node": 5, "mean_interarrival_slots": 1, "slots": 1, "rel_deadline_slots": 20}
  ]
}`

// TestShapesGolden pins the bytes of the shapes results travel in: the sweep
// result JSON line (its field order follows the sweep row's declaration
// order), the sweep table and CSV, a multi-ring scenario Summary line, and
// the per-run counter lines of /metrics after two scenario runs. HELP text
// is left out: it documents the counters, it is not their value. Regenerate
// with `go test ./internal/serve -run ShapesGolden -update-golden` only for a
// deliberate change of shape.
func TestShapesGolden(t *testing.T) {
	var got bytes.Buffer
	outcomes, err := sweep.RunCtx(context.Background(), shapesGrid(), 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	line, err := encodeSweep("", outcomes)
	if err != nil {
		t.Fatal(err)
	}
	got.WriteString("== sweep result ==\n")
	got.Write(line)
	got.WriteString("== sweep table ==\n")
	got.WriteString(sweep.Table(outcomes).String())
	got.WriteString("== sweep csv ==\n")
	if err := sweep.WriteCSV(&got, outcomes); err != nil {
		t.Fatal(err)
	}

	srv := New(Options{Workers: 1})
	defer srv.Close()
	for _, body := range []string{shapesMulti, shapesSingle} {
		scen, err := scenario.Load(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		j, err := srv.SubmitScenario(scen, 0)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		res, ok := j.Result()
		if !ok {
			t.Fatalf("scenario job %s: %s", j.State(), j.Err())
		}
		if body == shapesMulti {
			got.WriteString("== multi-ring summary ==\n")
			got.Write(res)
		}
	}
	var metrics bytes.Buffer
	srv.WriteMetrics(&metrics)
	got.WriteString("== metrics ==\n")
	for _, l := range strings.SplitAfter(metrics.String(), "\n") {
		for _, p := range []string{"ccr_served_faults_", "ccr_served_admission_sim_", "ccr_served_mode_", "ccr_served_bridge_"} {
			if strings.HasPrefix(l, p) {
				got.WriteString(l)
			}
		}
	}

	const path = "testdata/shapes.golden"
	if *updateShapes {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden once): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("shapes drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got.Bytes(), want)
	}
}
