package sweep

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden sweep CSV")

// goldenGrid is a small fixed grid touching every sweep path: the three
// protocols at two ring sizes and two loads, then one point each with a
// churn, a fault, a mode spec and two bridged rings.
func goldenGrid() []Point {
	pts := Grid([]string{"ccr-edf", "cc-fpr", "tdma"}, []int{8, 32}, []float64{0.3, 0.7},
		[]string{"uniform"}, []uint64{1})
	one := []Point{{Protocol: "ccr-edf", Nodes: 8, Load: 0.5, Locality: "uniform", Seed: 1}}
	pts = append(pts, WithChurn(one, "rate=40000,hold=3000")...)
	pts = append(pts, WithFaults(one, "coll=0.01,ho=0.005,crash=3@1000+500")...)
	pts = append(pts, WithMode(one, "window=256,dmiss=0.05,bcap=64")...)
	pts = append(pts, WithRings(one, 2)...)
	return pts
}

// TestGoldenSweepCSV pins the CSV bytes of goldenGrid: any change to the
// slot engine, the arbiters, admission or the sweep runner that moves a
// single outcome shows up as a diff against testdata/golden_sweep.csv.
// Regenerate deliberately with
// `go test ./internal/sweep -run GoldenSweep -update-golden`.
func TestGoldenSweepCSV(t *testing.T) {
	outs := Run(goldenGrid(), 2, 4000)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, outs); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	path := filepath.Join("testdata", "golden_sweep.csv")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sweep CSV differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
