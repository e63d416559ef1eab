// Package sweep runs grids of independent simulations in parallel and
// aggregates their headline metrics. Each grid point is a full network
// simulation (protocol × ring size × offered load × locality × seed); the
// points are independent, so they fan out across a worker pool of
// goroutines while each simulation itself stays single-threaded and
// deterministic. Output order is the grid order regardless of scheduling,
// so sweep results are bit-reproducible for any worker count.
package sweep

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"ccredf/internal/ccfpr"
	"ccredf/internal/churn"
	"ccredf/internal/core"
	"ccredf/internal/fault"
	"ccredf/internal/mode"
	"ccredf/internal/network"
	"ccredf/internal/ring"
	"ccredf/internal/rng"
	"ccredf/internal/runner"
	"ccredf/internal/sched"
	"ccredf/internal/stats"
	"ccredf/internal/tdma"
	"ccredf/internal/timing"
	"ccredf/internal/topology"
	"ccredf/internal/traffic"
)

// Point is one grid coordinate. Its JSON form is the coordinate part of the
// sweep wire row (see Outcome); the spec strings stay off the wire, which
// carries them once per sweep rather than once per point.
type Point struct {
	// Protocol is "ccr-edf", "cc-fpr" or "tdma".
	Protocol string `json:"protocol"`
	// Nodes is the ring size.
	Nodes int `json:"nodes"`
	// Load is the offered real-time utilisation (forced, identical across
	// protocols).
	Load float64 `json:"load"`
	// Locality names the destination pattern: "uniform", "neighbour",
	// "opposite" or "local".
	Locality string `json:"locality"`
	// Seed drives the point's randomness.
	Seed uint64 `json:"seed"`
	// FaultSpec is an optional fault-injection spec (fault.ParseSpec
	// syntax, e.g. "coll=0.01,crash=3@100+50"); empty disables injection.
	// Kept as the compact string so Point stays comparable.
	FaultSpec string `json:"-"`
	// Rings > 1 runs the point on a bridged chain of that many rings of
	// Nodes each (cross-ring connections between neighbouring rings plus one
	// spanning the chain); 0 or 1 is the classic single ring.
	Rings int `json:"rings,omitempty"`
	// ChurnSpec is an optional connection-churn spec (churn.ParseSpec
	// syntax, e.g. "rate=50000,hold=2000"); empty disables churn. Kept as
	// the compact string so Point stays comparable. On a multi-ring point
	// the churn runs on ring 0.
	ChurnSpec string `json:"-"`
	// ModeSpec is an optional operating-mode spec (mode.ParseSpec syntax,
	// e.g. "window=256,dmiss=0.05,bcap=64"); empty disables the protocol.
	// Kept as the compact string so Point stays comparable. On a multi-ring
	// point every ring runs its own controller and bcap bounds the bridge
	// queues.
	ModeSpec string `json:"-"`
}

// String renders the coordinate compactly.
func (p Point) String() string {
	s := fmt.Sprintf("%s/N%d/U%.2f/%s/s%d", p.Protocol, p.Nodes, p.Load, p.Locality, p.Seed)
	if p.Rings > 1 {
		s += fmt.Sprintf("/R%d", p.Rings)
	}
	if p.FaultSpec != "" {
		s += "/f[" + p.FaultSpec + "]"
	}
	if p.ChurnSpec != "" {
		s += "/c[" + p.ChurnSpec + "]"
	}
	if p.ModeSpec != "" {
		s += "/m[" + p.ModeSpec + "]"
	}
	return s
}

// WithFaults returns the points with the given fault spec stamped on every
// coordinate ("" clears it).
func WithFaults(points []Point, spec string) []Point {
	out := append([]Point(nil), points...)
	for i := range out {
		out[i].FaultSpec = spec
	}
	return out
}

// WithRings returns the points with the given ring count stamped on every
// coordinate (≤ 1 restores the single ring).
func WithRings(points []Point, rings int) []Point {
	out := append([]Point(nil), points...)
	for i := range out {
		out[i].Rings = rings
	}
	return out
}

// WithChurn returns the points with the given churn spec stamped on every
// coordinate ("" clears it).
func WithChurn(points []Point, spec string) []Point {
	out := append([]Point(nil), points...)
	for i := range out {
		out[i].ChurnSpec = spec
	}
	return out
}

// WithMode returns the points with the given operating-mode spec stamped on
// every coordinate ("" clears it).
func WithMode(points []Point, spec string) []Point {
	out := append([]Point(nil), points...)
	for i := range out {
		out[i].ModeSpec = spec
	}
	return out
}

// Outcome is the measured result at one point. Its JSON form is the wire
// row of a sweep result (serve.SweepOutcome adds the error text), so field
// order here is wire order.
type Outcome struct {
	Point
	// Delivered counts completed messages; MissRatio is net-deadline
	// misses over (delivered+missed).
	Delivered int64   `json:"delivered"`
	MissRatio float64 `json:"miss_ratio"`
	// P99LatencyUs is the real-time class 99th percentile in µs.
	P99LatencyUs float64 `json:"p99_latency_us"`
	// ReuseFactor is mean busy links per data slot.
	ReuseFactor float64 `json:"reuse_factor"`
	// GapFraction is hand-over time over elapsed time.
	GapFraction float64 `json:"gap_fraction"`
	// FaultsInjected and FaultsRecovered count injected faults and the
	// recoveries the protocol completed (equal when every fault healed).
	FaultsInjected  int64 `json:"faults_injected,omitempty"`
	FaultsRecovered int64 `json:"faults_recovered,omitempty"`
	// RingUtil is the admitted real-time utilisation per ring (one entry on
	// a single-ring point).
	RingUtil []float64 `json:"ring_util,omitempty"`
	// CrossMissRatio is end-to-end deadline misses plus bridge expiries over
	// all cross-ring completions (always 0 on a single-ring point).
	CrossMissRatio float64 `json:"cross_miss_ratio,omitempty"`
	// Admitted*, Evicted* and Missed* count mixed-criticality admission
	// outcomes and per-level deadline misses (all zero without a churn
	// spec).
	AdmittedHard int64 `json:"admitted_hard,omitempty"`
	AdmittedFirm int64 `json:"admitted_firm,omitempty"`
	AdmittedBE   int64 `json:"admitted_be,omitempty"`
	EvictedHard  int64 `json:"evicted_hard,omitempty"`
	EvictedFirm  int64 `json:"evicted_firm,omitempty"`
	EvictedBE    int64 `json:"evicted_be,omitempty"`
	MissedHard   int64 `json:"missed_hard,omitempty"`
	MissedFirm   int64 `json:"missed_firm,omitempty"`
	MissedBE     int64 `json:"missed_be,omitempty"`
	// ModeTransitions and ModeShedBE count operating-mode transitions and
	// best-effort messages shed in Critical mode (zero without a mode spec;
	// summed over rings on a multi-ring point).
	ModeTransitions int64 `json:"mode_transitions,omitempty"`
	ModeShedBE      int64 `json:"mode_shed_be,omitempty"`
	// BridgeDropped and BridgeOverflowed count bridge-queue backpressure
	// drops and safety-cap overflows (multi-ring points only).
	BridgeDropped    int64 `json:"bridge_dropped,omitempty"`
	BridgeOverflowed int64 `json:"bridge_overflowed,omitempty"`
	// Err records a failed point (nil on success).
	Err error `json:"-"`
}

// Grid enumerates the cartesian product in deterministic order.
func Grid(protocols []string, nodes []int, loads []float64, localities []string, seeds []uint64) []Point {
	var pts []Point
	for _, proto := range protocols {
		for _, n := range nodes {
			for _, u := range loads {
				for _, loc := range localities {
					for _, s := range seeds {
						pts = append(pts, Point{Protocol: proto, Nodes: n, Load: u, Locality: loc, Seed: s})
					}
				}
			}
		}
	}
	return pts
}

func picker(name string) traffic.DestPicker {
	switch name {
	case "neighbour":
		return traffic.NeighbourDest
	case "opposite":
		return traffic.OppositeDest
	case "local":
		return traffic.LocalDest(0.3)
	default:
		return traffic.UniformDest
	}
}

func protocol(name string, nodes int) (core.Protocol, error) {
	switch name {
	case "ccr-edf":
		return core.NewArbiter(nodes, sched.MapExact, true)
	case "cc-fpr":
		return ccfpr.NewArbiter(nodes, true)
	case "tdma":
		return tdma.NewArbiter(nodes, true)
	default:
		return nil, fmt.Errorf("sweep: unknown protocol %q", name)
	}
}

// chunkSlots bounds how long a running point can ignore a cancelled
// context: the simulation advances in chunks of this many slot periods and
// polls ctx between chunks.
const chunkSlots = 512

// runPoint executes one simulation, polling ctx between chunks of slots.
func runPoint(ctx context.Context, pt Point, horizonSlots int64) Outcome {
	if pt.Rings > 1 {
		return runMultiPoint(ctx, pt, horizonSlots)
	}
	out := Outcome{Point: pt}
	p := timing.DefaultParams(pt.Nodes)
	proto, err := protocol(pt.Protocol, pt.Nodes)
	if err != nil {
		out.Err = err
		return out
	}
	cfg := network.Config{Params: p, Protocol: proto, Seed: pt.Seed}
	if pt.FaultSpec != "" {
		plan, err := fault.ParseSpec(pt.FaultSpec)
		if err != nil {
			out.Err = err
			return out
		}
		cfg.Faults = &plan
	}
	if pt.ModeSpec != "" {
		ms, err := mode.ParseSpec(pt.ModeSpec)
		if err != nil {
			out.Err = err
			return out
		}
		cfg.Mode = &ms
	}
	net, err := network.New(cfg)
	if err != nil {
		out.Err = err
		return out
	}
	src := rng.New(pt.Seed)
	for _, c := range traffic.UniformRTSet(pt.Nodes, pt.Nodes, pt.Load, p, picker(pt.Locality), src) {
		if _, err := net.ForceConnection(c); err != nil {
			out.Err = err
			return out
		}
	}
	if err := attachChurn(net, pt); err != nil {
		out.Err = err
		return out
	}
	for done := int64(0); done < horizonSlots; {
		if err := ctx.Err(); err != nil {
			out.Err = err
			return out
		}
		step := int64(chunkSlots)
		if remaining := horizonSlots - done; remaining < step {
			step = remaining
		}
		net.RunSlots(step)
		done += step
	}
	collect(net, &out)
	return out
}

// attachChurn parses the point's churn spec (if any) and starts the churn
// workload on net. A seedless spec inherits the point seed so every point
// stays deterministic.
func attachChurn(net *network.Network, pt Point) error {
	if pt.ChurnSpec == "" {
		return nil
	}
	spec, err := churn.ParseSpec(pt.ChurnSpec)
	if err != nil {
		return err
	}
	if spec.Seed == 0 {
		spec.Seed = pt.Seed
	}
	_, err = churn.Attach(net, spec)
	return err
}

// collect reads one finished single-ring simulation's headline metrics into
// the outcome.
func collect(net *network.Network, out *Outcome) {
	m := net.Metrics()
	out.Delivered = m.MessagesDelivered.Value()
	misses := m.NetDeadlineMisses.Value()
	out.MissRatio = stats.Ratio(misses, out.Delivered+misses)
	out.P99LatencyUs = m.Latency[sched.ClassRealTime].Quantile(0.99).Micros()
	out.ReuseFactor = m.SpatialReuseFactor()
	out.GapFraction = float64(m.GapTime) / float64(net.Now())
	out.FaultsInjected = m.FaultsInjected.Value()
	out.FaultsRecovered = m.FaultsRecovered.Value()
	out.RingUtil = []float64{net.Admission().Utilisation()}
	collectRing(net, out)
}

// collectRing folds one ring's mixed-criticality and operating-mode
// counters into the outcome.
func collectRing(net *network.Network, out *Outcome) {
	m := net.Metrics()
	out.AdmittedHard += m.CritAdmitted[sched.CritHard].Value()
	out.AdmittedFirm += m.CritAdmitted[sched.CritFirm].Value()
	out.AdmittedBE += m.CritAdmitted[sched.CritBestEffort].Value()
	out.EvictedHard += m.CritEvicted[sched.CritHard].Value()
	out.EvictedFirm += m.CritEvicted[sched.CritFirm].Value()
	out.EvictedBE += m.CritEvicted[sched.CritBestEffort].Value()
	out.MissedHard += m.CritMisses[sched.CritHard].Value()
	out.MissedFirm += m.CritMisses[sched.CritFirm].Value()
	out.MissedBE += m.CritMisses[sched.CritBestEffort].Value()
	if mc := net.ModeController(); mc != nil {
		out.ModeTransitions += mc.Transitions()
		out.ModeShedBE += m.ModeShedBE.Value()
	}
}

// runMultiPoint executes one bridged-chain simulation: pt.Rings rings of
// pt.Nodes nodes, cross-ring connections between neighbouring rings plus one
// spanning the chain, and the point's forced intra-ring load on every ring.
func runMultiPoint(ctx context.Context, pt Point, horizonSlots int64) Outcome {
	out := Outcome{Point: pt}
	spec := topology.Spec{}
	for i := 0; i < pt.Rings; i++ {
		spec.Rings = append(spec.Rings, pt.Nodes)
		if i > 0 {
			spec.Bridges = append(spec.Bridges, topology.Bridge{
				RingA: i - 1, NodeA: pt.Nodes / 2, RingB: i, NodeB: 0,
			})
		}
	}
	topo, err := topology.New(spec)
	if err != nil {
		out.Err = err
		return out
	}
	cfgs := make([]network.Config, pt.Rings)
	for i := range cfgs {
		proto, err := protocol(pt.Protocol, pt.Nodes)
		if err != nil {
			out.Err = err
			return out
		}
		cfgs[i] = network.Config{Params: timing.DefaultParams(pt.Nodes), Protocol: proto, Seed: pt.Seed + uint64(i)}
		if pt.FaultSpec != "" && i == 0 {
			plan, err := fault.ParseSpec(pt.FaultSpec)
			if err != nil {
				out.Err = err
				return out
			}
			cfgs[i].Faults = &plan
		}
	}
	bridgeCap := 0
	if pt.ModeSpec != "" {
		ms, err := mode.ParseSpec(pt.ModeSpec)
		if err != nil {
			out.Err = err
			return out
		}
		bridgeCap = ms.BridgeCap
		for i := range cfgs {
			cfgs[i].Mode = &ms
		}
	}
	m, err := network.NewMulti(network.MultiConfig{Topo: topo, RingConfigs: cfgs, BridgeCap: bridgeCap})
	if err != nil {
		out.Err = err
		return out
	}
	// Cross connections first, through end-to-end admission, so they hold
	// their reservations before the forced intra-ring load floods the rings.
	p := m.Ring(0).Params()
	var cross []*network.CrossConn
	openCross := func(req network.CrossRequest) {
		if cc, err := m.OpenCross(req); err == nil {
			cross = append(cross, cc)
		}
	}
	for ri := 0; ri+1 < pt.Rings; ri++ {
		openCross(network.CrossRequest{
			SrcRing: ri, Src: 1, DstRing: ri + 1, Dests: ring.Node(1),
			Period: 64 * p.SlotTime(), Slots: 1, Deadline: 64 * p.SlotTime(),
		})
	}
	if pt.Rings > 2 {
		openCross(network.CrossRequest{
			SrcRing: 0, Src: 2, DstRing: pt.Rings - 1, Dests: ring.Node(2),
			Period: 128 * p.SlotTime(), Slots: 1, Deadline: 128 * p.SlotTime(),
		})
	}
	for ri := 0; ri < pt.Rings; ri++ {
		net := m.Ring(ri)
		src := rng.New(pt.Seed + uint64(ri))
		for _, c := range traffic.UniformRTSet(pt.Nodes, pt.Nodes, pt.Load, p, picker(pt.Locality), src) {
			if _, err := net.ForceConnection(c); err != nil {
				out.Err = err
				return out
			}
		}
	}
	if err := attachChurn(m.Ring(0), pt); err != nil {
		out.Err = err
		return out
	}
	for done := int64(0); done < horizonSlots; {
		if err := ctx.Err(); err != nil {
			out.Err = err
			return out
		}
		step := int64(chunkSlots)
		if remaining := horizonSlots - done; remaining < step {
			step = remaining
		}
		m.RunSlots(step)
		done += step
	}
	var misses int64
	var p99 timing.Time
	for ri := 0; ri < pt.Rings; ri++ {
		rm := m.Ring(ri).Metrics()
		out.Delivered += rm.MessagesDelivered.Value()
		misses += rm.NetDeadlineMisses.Value()
		if q := rm.Latency[sched.ClassRealTime].Quantile(0.99); q > p99 {
			p99 = q
		}
		out.ReuseFactor += rm.SpatialReuseFactor() / float64(pt.Rings)
		out.FaultsInjected += rm.FaultsInjected.Value()
		out.FaultsRecovered += rm.FaultsRecovered.Value()
		out.RingUtil = append(out.RingUtil, m.Ring(ri).Admission().Utilisation())
		collectRing(m.Ring(ri), &out)
	}
	out.P99LatencyUs = p99.Micros()
	out.BridgeDropped, out.BridgeOverflowed, _ = m.BridgeTotals()
	out.MissRatio = stats.Ratio(misses, out.Delivered+misses)
	out.GapFraction = float64(m.Ring(0).Metrics().GapTime) / float64(m.Now())
	var crossBad, crossTotal int64
	for _, cc := range cross {
		st := cc.Stats()
		crossBad += st.Misses + st.Expired
		crossTotal += st.Delivered + st.Misses + st.Expired
	}
	out.CrossMissRatio = stats.Ratio(crossBad, crossTotal)
	return out
}

// Run executes every point on a pool of workers (≤ 0 means GOMAXPROCS) and
// returns outcomes in grid order.
func Run(points []Point, workers int, horizonSlots int64) []Outcome {
	outcomes, _ := RunCtx(context.Background(), points, workers, horizonSlots)
	return outcomes
}

// RunCtx is Run with cooperative cancellation: once ctx is cancelled no new
// point starts and running points stop at the next slot chunk. Outcomes stay
// in grid order; points that never ran (or were interrupted) carry the
// context error in Err. The returned error is ctx.Err().
func RunCtx(ctx context.Context, points []Point, workers int, horizonSlots int64) ([]Outcome, error) {
	outcomes, err := runner.MapCtx(ctx, len(points), workers, func(i int) Outcome {
		return runPoint(ctx, points[i], horizonSlots)
	})
	if err != nil {
		// Undispatched points hold the zero Outcome; stamp their coordinate
		// and the cancellation error so callers see exactly what was skipped.
		for i := range outcomes {
			if outcomes[i].Point != points[i] {
				outcomes[i] = Outcome{Point: points[i], Err: err}
			}
		}
	}
	return outcomes, err
}

// CSVHeader is the pinned column order of WriteCSV. Remote (ccr-sweep
// -remote) and local runs must produce byte-identical rows under it; a
// round-trip test in serve enforces that, so extend it deliberately.
const CSVHeader = "protocol,nodes,load,locality,seed,delivered,miss_ratio,p99_latency_us,reuse_factor,gap_fraction,faults_injected,faults_recovered,ring_util,cross_miss_ratio,admitted_hard,admitted_firm,admitted_be,evicted_hard,evicted_firm,evicted_be,missed_hard,missed_firm,missed_be,mode_transitions,mode_shed_be,bridge_dropped,bridge_overflowed,error"

// ringUtilCSV joins the per-ring utilisations with ';' so they stay one CSV
// column.
func ringUtilCSV(utils []float64) string {
	parts := make([]string, len(utils))
	for i, u := range utils {
		parts[i] = fmt.Sprintf("%.4f", u)
	}
	return strings.Join(parts, ";")
}

// WriteCSV emits the outcomes as CSV with a header row.
func WriteCSV(w io.Writer, outcomes []Outcome) error {
	if _, err := fmt.Fprintln(w, CSVHeader); err != nil {
		return err
	}
	for _, o := range outcomes {
		errStr := ""
		if o.Err != nil {
			errStr = o.Err.Error()
		}
		if _, err := fmt.Fprintf(w, "%s,%d,%.4f,%s,%d,%d,%.6f,%.3f,%.4f,%.6f,%d,%d,%s,%.6f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s\n",
			o.Protocol, o.Nodes, o.Load, o.Locality, o.Seed,
			o.Delivered, o.MissRatio, o.P99LatencyUs, o.ReuseFactor, o.GapFraction,
			o.FaultsInjected, o.FaultsRecovered, ringUtilCSV(o.RingUtil), o.CrossMissRatio,
			o.AdmittedHard, o.AdmittedFirm, o.AdmittedBE,
			o.EvictedHard, o.EvictedFirm, o.EvictedBE,
			o.MissedHard, o.MissedFirm, o.MissedBE,
			o.ModeTransitions, o.ModeShedBE, o.BridgeDropped, o.BridgeOverflowed, errStr); err != nil {
			return err
		}
	}
	return nil
}

// Table renders the outcomes as an aligned text table.
func Table(outcomes []Outcome) *stats.Table {
	t := stats.NewTable("Sweep results",
		"point", "delivered", "miss ratio", "p99", "reuse", "gap frac")
	for _, o := range outcomes {
		if o.Err != nil {
			t.AddRow(o.Point.String(), "-", "-", "-", "-", o.Err.Error())
			continue
		}
		// Rounding recovers the exact picosecond count the µs value came from.
		p99 := timing.Time(math.Round(o.P99LatencyUs * float64(timing.Microsecond)))
		t.AddRow(o.Point.String(), o.Delivered, o.MissRatio, p99.String(), o.ReuseFactor, o.GapFraction)
	}
	return t
}
