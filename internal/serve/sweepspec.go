package serve

import (
	"errors"
	"fmt"
	"runtime"

	"ccredf/internal/churn"
	"ccredf/internal/fault"
	"ccredf/internal/mode"
	"ccredf/internal/sweep"
)

// SweepSpec is the declarative body of POST /v1/sweeps: a parameter grid
// fanned out over internal/sweep. The cartesian product of the axes is
// enumerated in deterministic order, so a spec's result bytes are
// reproducible and cacheable exactly like a single scenario's.
type SweepSpec struct {
	// Protocols, Nodes, Loads, Localities and Seeds are the grid axes
	// (defaults: ["ccr-edf"], [8], [0.5], ["uniform"], [1]).
	Protocols  []string  `json:"protocols,omitempty"`
	Nodes      []int     `json:"nodes,omitempty"`
	Loads      []float64 `json:"loads,omitempty"`
	Localities []string  `json:"localities,omitempty"`
	Seeds      []uint64  `json:"seeds,omitempty"`
	// HorizonSlots is the per-point run length (required).
	HorizonSlots int64 `json:"horizon_slots"`
	// Workers bounds the sweep's internal fan-out (0 = GOMAXPROCS). The grid
	// still occupies a single service worker slot; Workers only controls
	// parallelism within it.
	Workers int `json:"workers,omitempty"`
	// Faults is an optional fault-injection spec (fault.ParseSpec syntax)
	// applied identically to every grid point.
	Faults string `json:"faults,omitempty"`
	// Rings > 1 runs every point on a bridged chain of that many rings of
	// Nodes each (sweep.Point.Rings); 0 or 1 is the classic single ring.
	Rings int `json:"rings,omitempty"`
	// Churn is an optional connection-churn spec (churn.ParseSpec syntax)
	// applied identically to every grid point. A seedless spec inherits each
	// point's seed.
	Churn string `json:"churn,omitempty"`
	// Mode is an optional operating-mode spec (mode.ParseSpec syntax)
	// applied identically to every grid point.
	Mode string `json:"mode,omitempty"`
}

// normalise fills the implicit axis defaults in place, so equivalent
// spellings share a cache key.
func (sp *SweepSpec) normalise() {
	if len(sp.Protocols) == 0 {
		sp.Protocols = []string{"ccr-edf"}
	}
	if len(sp.Nodes) == 0 {
		sp.Nodes = []int{8}
	}
	if len(sp.Loads) == 0 {
		sp.Loads = []float64{0.5}
	}
	if len(sp.Localities) == 0 {
		sp.Localities = []string{"uniform"}
	}
	if len(sp.Seeds) == 0 {
		sp.Seeds = []uint64{1}
	}
	if sp.Rings == 1 {
		sp.Rings = 0 // one ring is the default; share its cache key
	}
}

// Validate checks the axes with field-qualified errors.
func (sp *SweepSpec) Validate() error {
	if sp.HorizonSlots <= 0 {
		return fmt.Errorf("sweep: horizon_slots must be positive")
	}
	if sp.Workers < 0 {
		return fmt.Errorf("sweep: workers %d negative", sp.Workers)
	}
	for i, p := range sp.Protocols {
		switch p {
		case "ccr-edf", "cc-fpr", "tdma":
		default:
			return fmt.Errorf("sweep: protocols[%d]: unknown protocol %q", i, p)
		}
	}
	for i, n := range sp.Nodes {
		if n < 2 || n > 64 {
			return fmt.Errorf("sweep: nodes[%d] %d outside [2,64]", i, n)
		}
	}
	for i, u := range sp.Loads {
		if u <= 0 || u > 2 {
			return fmt.Errorf("sweep: loads[%d] %g outside (0,2]", i, u)
		}
	}
	for i, l := range sp.Localities {
		switch l {
		case "uniform", "neighbour", "opposite", "local":
		default:
			return fmt.Errorf("sweep: localities[%d]: unknown pattern %q", i, l)
		}
	}
	if sp.Faults != "" {
		plan, err := fault.ParseSpec(sp.Faults)
		if err != nil {
			return fmt.Errorf("sweep: faults: %w", err)
		}
		// Every point applies the plan to a ring of its own size (with
		// rings > 1, to ring 0 of that size), so crash nodes must fit each.
		for i, n := range sp.Nodes {
			if err := plan.Validate(n); err != nil {
				return fmt.Errorf("sweep: faults: nodes[%d] %d: %w", i, n, err)
			}
		}
	}
	if sp.Rings < 0 || sp.Rings > 16 {
		return fmt.Errorf("sweep: rings %d outside [0,16]", sp.Rings)
	}
	if sp.Churn != "" {
		if _, err := churn.ParseSpec(sp.Churn); err != nil {
			return fmt.Errorf("sweep: churn: %w", err)
		}
	}
	if sp.Mode != "" {
		if _, err := mode.ParseSpec(sp.Mode); err != nil {
			return fmt.Errorf("sweep: mode: %w", err)
		}
	}
	return nil
}

// Grid enumerates the spec's cartesian product in deterministic order.
func (sp *SweepSpec) Grid() []sweep.Point {
	pts := sweep.Grid(sp.Protocols, sp.Nodes, sp.Loads, sp.Localities, sp.Seeds)
	if sp.Faults != "" {
		pts = sweep.WithFaults(pts, sp.Faults)
	}
	if sp.Rings > 1 {
		pts = sweep.WithRings(pts, sp.Rings)
	}
	if sp.Churn != "" {
		pts = sweep.WithChurn(pts, sp.Churn)
	}
	if sp.Mode != "" {
		pts = sweep.WithMode(pts, sp.Mode)
	}
	return pts
}

// workerCount resolves the within-sweep parallelism.
func (sp *SweepSpec) workerCount() int {
	if sp.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return sp.Workers
}

// SweepKey returns the content-addressed cache key of a (normalised) spec.
// Workers is excluded: it changes scheduling, never results.
func SweepKey(sp *SweepSpec) (string, error) {
	n := *sp
	n.normalise()
	n.Workers = 0
	return canonicalKey("sweep", &n)
}

// SweepOutcome is the wire form of one grid point's result: the outcome's
// own JSON plus the error text.
type SweepOutcome struct {
	sweep.Outcome
	Error string `json:"error,omitempty"`
}

// WireOutcome converts one grid point's result to the wire form.
func WireOutcome(o sweep.Outcome) SweepOutcome {
	w := SweepOutcome{Outcome: o}
	if o.Err != nil {
		w.Error = o.Err.Error()
	}
	return w
}

// Local converts the wire form back into sweep.Outcome, so table and CSV
// output is byte-identical whether the grid ran locally or remotely (the
// sweep CSV header round-trip contract). faultSpec, churnSpec and modeSpec
// re-attach the point's fault, churn and operating-mode coordinates, which
// the wire form does not carry per point.
func (w SweepOutcome) Local(faultSpec, churnSpec, modeSpec string) sweep.Outcome {
	o := w.Outcome
	o.FaultSpec, o.ChurnSpec, o.ModeSpec = faultSpec, churnSpec, modeSpec
	if w.Error != "" {
		o.Err = errors.New(w.Error)
	}
	return o
}

// SweepResult is the machine-readable result of one sweep job, deterministic
// for a given (spec, engine version) like Summary is for scenarios.
type SweepResult struct {
	Schema int            `json:"schema"`
	Engine string         `json:"engine"`
	Key    string         `json:"key,omitempty"`
	Points []SweepOutcome `json:"points"`
}

// encodeSweep converts outcomes to the deterministic wire form.
func encodeSweep(key string, outcomes []sweep.Outcome) ([]byte, error) {
	res := SweepResult{Schema: SummarySchema, Engine: EngineVersion, Key: key}
	for _, o := range outcomes {
		res.Points = append(res.Points, WireOutcome(o))
	}
	return encodeJSONLine(res)
}

// encodeSweepPoints encodes already-wire-form points under key. Scattered
// sweeps stitch with this: a point's wire form survives a JSON round trip
// through a sub-sweep result exactly (encoding/json emits the shortest
// representation that round-trips a float64), so a cluster-assembled result
// is byte-identical to a locally-run one.
func encodeSweepPoints(key string, points []SweepOutcome) ([]byte, error) {
	return encodeJSONLine(SweepResult{Schema: SummarySchema, Engine: EngineVersion, Key: key, Points: points})
}

// PointSpec narrows a (normalised) spec to a single grid point: a
// one-value-per-axis sub-sweep. Sub-sweeps are what a cluster scatters —
// each is an ordinary content-addressed sweep job, so every grid point gets
// its own cache line and a re-run after a peer failure only re-simulates
// the points that were lost.
func (sp *SweepSpec) PointSpec(pt sweep.Point) *SweepSpec {
	sub := &SweepSpec{
		Protocols:    []string{pt.Protocol},
		Nodes:        []int{pt.Nodes},
		Loads:        []float64{pt.Load},
		Localities:   []string{pt.Locality},
		Seeds:        []uint64{pt.Seed},
		HorizonSlots: sp.HorizonSlots,
		Faults:       sp.Faults,
		Rings:        sp.Rings,
		Churn:        sp.Churn,
		Mode:         sp.Mode,
	}
	sub.normalise()
	return sub
}
