package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"ccredf/internal/sweep"
)

// TestSweepCSVRoundTrip is the remote==local contract of the sweep CSV: an
// outcome that travels through the wire form (SweepOutcome, as ccr-sweep
// -remote receives it) must render byte-identically to one written straight
// from the local run, including the new ring_util and cross_miss_ratio
// columns and the pinned header.
func TestSweepCSVRoundTrip(t *testing.T) {
	pts := sweep.Grid([]string{"ccr-edf"}, []int{8}, []float64{0.4}, []string{"uniform"}, []uint64{1, 2})
	pts = append(pts, sweep.WithRings(pts[:1], 3)...)
	pts = append(pts, sweep.WithChurn(pts[:1], "rate=100000,hold=1000")...)
	local, err := sweep.RunCtx(context.Background(), pts, 2, 500)
	if err != nil {
		t.Fatal(err)
	}

	// Through the wire: encode like the daemon, decode like ccr-sweep.
	wire := make([]SweepOutcome, len(local))
	for i, o := range local {
		wire[i] = WireOutcome(o)
	}
	b, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []SweepOutcome
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	remote := make([]sweep.Outcome, len(decoded))
	for i, w := range decoded {
		remote[i] = w.Local("", "", "")
	}

	var localCSV, remoteCSV bytes.Buffer
	if err := sweep.WriteCSV(&localCSV, local); err != nil {
		t.Fatal(err)
	}
	if err := sweep.WriteCSV(&remoteCSV, remote); err != nil {
		t.Fatal(err)
	}
	if localCSV.String() != remoteCSV.String() {
		t.Fatalf("remote CSV diverges from local:\nlocal:\n%s\nremote:\n%s", localCSV.String(), remoteCSV.String())
	}
	header, _, _ := strings.Cut(localCSV.String(), "\n")
	if header != sweep.CSVHeader {
		t.Fatalf("CSV header %q, want pinned %q", header, sweep.CSVHeader)
	}
	if !strings.Contains(header, "ring_util") || !strings.Contains(header, "cross_miss_ratio") {
		t.Fatalf("header %q missing multi-ring columns", header)
	}
	for _, col := range []string{"admitted_hard", "admitted_firm", "admitted_be",
		"evicted_hard", "evicted_firm", "evicted_be",
		"missed_hard", "missed_firm", "missed_be"} {
		if !strings.Contains(header, col) {
			t.Fatalf("header %q missing criticality column %q", header, col)
		}
	}
}

// TestSweepSpecChurnValidation covers the churn axis: bad specs are rejected
// with a field-qualified error and good ones stamp every grid point.
func TestSweepSpecChurnValidation(t *testing.T) {
	sp := &SweepSpec{HorizonSlots: 100, Churn: "rate=0"}
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "churn") {
		t.Fatalf("churn rate=0 validated: %v", err)
	}
	sp = &SweepSpec{HorizonSlots: 100, Churn: "rate=50000,hold=2000"}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	sp.normalise()
	for _, pt := range sp.Grid() {
		if pt.ChurnSpec != "rate=50000,hold=2000" {
			t.Fatalf("grid point %v lost the churn spec", pt)
		}
	}
	if sub := sp.PointSpec(sp.Grid()[0]); sub.Churn != sp.Churn {
		t.Fatalf("PointSpec dropped churn: %+v", sub)
	}
}

// TestSweepSpecModeValidation covers the operating-mode axis: bad specs are
// rejected with a field-qualified error and good ones stamp every grid point.
func TestSweepSpecModeValidation(t *testing.T) {
	sp := &SweepSpec{HorizonSlots: 100, Mode: "dmiss=2"}
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "mode") {
		t.Fatalf("mode dmiss=2 validated: %v", err)
	}
	sp = &SweepSpec{HorizonSlots: 100, Mode: "window=128,dmiss=0.05,bcap=32"}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	sp.normalise()
	for _, pt := range sp.Grid() {
		if pt.ModeSpec != "window=128,dmiss=0.05,bcap=32" {
			t.Fatalf("grid point %v lost the mode spec", pt)
		}
	}
	if sub := sp.PointSpec(sp.Grid()[0]); sub.Mode != sp.Mode {
		t.Fatalf("PointSpec dropped mode: %+v", sub)
	}
}

// TestSweepSpecRingsValidation covers the new rings axis.
func TestSweepSpecRingsValidation(t *testing.T) {
	sp := &SweepSpec{HorizonSlots: 100, Rings: 17}
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "rings") {
		t.Fatalf("rings=17 validated: %v", err)
	}
	sp = &SweepSpec{HorizonSlots: 100, Rings: 3}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	sp.normalise()
	for _, pt := range sp.Grid() {
		if pt.Rings != 3 {
			t.Fatalf("grid point %v lost the ring count", pt)
		}
	}
	// rings:1 and rings omitted must share a cache key.
	a := &SweepSpec{HorizonSlots: 100, Rings: 1}
	b := &SweepSpec{HorizonSlots: 100}
	ka, err := SweepKey(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := SweepKey(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("rings:1 key %s != omitted key %s", ka, kb)
	}
}
