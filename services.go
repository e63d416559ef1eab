package ccredf

import (
	"ccredf/internal/churn"
	"ccredf/internal/mode"
	"ccredf/internal/rng"
	"ccredf/internal/services"
	"ccredf/internal/traffic"
)

// Barrier is a reusable barrier-synchronisation group (Section 1's parallel
// processing services).
type Barrier = services.Barrier

// NewBarrier creates a barrier over members coordinated by coordinator.
func (n *Network) NewBarrier(coordinator int, members NodeSet) (*Barrier, error) {
	return services.NewBarrier(n.Network, coordinator, members)
}

// Reduction performs global reductions (sum/min/max) over a node group.
type Reduction = services.Reduction

// ReduceOp combines reduction operands; OpSum, OpMin and OpMax are provided.
type ReduceOp = services.ReduceOp

// Standard reduction operators.
var (
	OpSum = services.OpSum
	OpMin = services.OpMin
	OpMax = services.OpMax
)

// NewReduction creates a reduction group.
func (n *Network) NewReduction(coordinator int, members NodeSet, op ReduceOp) (*Reduction, error) {
	return services.NewReduction(n.Network, coordinator, members, op)
}

// Channel is a reliable in-order flow-controlled message channel.
type Channel = services.Channel

// NewChannel opens a reliable channel from → to with the given window.
func (n *Network) NewChannel(from, to, window int) (*Channel, error) {
	return services.NewChannel(n.Network, from, to, window)
}

// AllToAll is a personalised all-to-all exchange over a node group, packed
// through spatial reuse.
type AllToAll = services.AllToAll

// NewAllToAll prepares an all-to-all exchange where each pairwise message
// occupies slots network slots.
func (n *Network) NewAllToAll(members NodeSet, slots int) (*AllToAll, error) {
	return services.NewAllToAll(n.Network, members, slots)
}

// TraceEvent is one recorded message arrival for trace-driven replay.
type TraceEvent = traffic.TraceEvent

// ParseTrace reads a replayable workload trace from CSV
// (at_slots,src,dst,slots,class,rel_deadline_slots).
var ParseTrace = traffic.ParseTrace

// Replay schedules trace events on the network relative to Now and returns
// counters of submitted and rejected events.
func (n *Network) Replay(events []TraceEvent) (submitted, rejected *int64) {
	return traffic.Replay(n.Network, events)
}

// RemoteAdmission is the Section 6 deployment of the admission controller:
// a designated node decides connection requests carried over the
// best-effort service.
type RemoteAdmission = services.RemoteAdmission

// NewRemoteAdmission designates a node as the network's admission
// controller; connection requests from other nodes travel as best-effort
// messages and activate on the acceptance reply.
func (n *Network) NewRemoteAdmission(designated int) (*RemoteAdmission, error) {
	return services.NewRemoteAdmission(n.Network, designated)
}

// SendShort submits a single-slot best-effort message and reports its
// delivery time to done (the short-message service).
func (n *Network) SendShort(from, to int, done func(at Time)) error {
	return services.SendShort(n.Network, from, to, done)
}

// Traffic generators, re-exported for building workloads against the public
// API. See internal/traffic for details.
type (
	// Poisson is a memoryless best-effort/non-real-time source.
	Poisson = traffic.Poisson
	// Bursty is a two-state bursty source.
	Bursty = traffic.Bursty
	// RadarPipeline models the paper's radar signal-processing chain.
	RadarPipeline = traffic.RadarPipeline
	// VideoStream models a VBR multimedia stream.
	VideoStream = traffic.VideoStream
	// DestPicker chooses destinations for generated messages.
	DestPicker = traffic.DestPicker
	// Rand is the deterministic random source generators draw from.
	Rand = rng.Source
)

// NewRand returns a deterministic random source for traffic generators.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// Destination pickers.
var (
	UniformDest   = traffic.UniformDest
	NeighbourDest = traffic.NeighbourDest
	OppositeDest  = traffic.OppositeDest
)

// HotspotDest sends to hotspot with probability p, else uniformly.
func HotspotDest(hotspot int, p float64) DestPicker { return traffic.HotspotDest(hotspot, p) }

// LocalDest picks destinations with geometric locality q.
func LocalDest(q float64) DestPicker { return traffic.LocalDest(q) }

// AttachPoisson starts a Poisson source on the network and returns its
// submitted-message counter.
func (n *Network) AttachPoisson(p Poisson, seed uint64) *int64 {
	return p.Attach(n.Network, rng.New(seed))
}

// AttachBursty starts a bursty source on the network.
func (n *Network) AttachBursty(b Bursty, seed uint64) *int64 {
	return b.Attach(n.Network, rng.New(seed))
}

// AttachVideoBestEffort streams a VBR video's actual frame sizes as
// unreserved best-effort traffic (for comparison with the guaranteed
// peak-rate reservation of VideoStream.Connection).
func (n *Network) AttachVideoBestEffort(v VideoStream) *int64 {
	return v.AttachBestEffort(n.Network)
}

// OpenRadarPipeline admits and starts a radar pipeline on the network.
func (n *Network) OpenRadarPipeline(rp RadarPipeline) ([]Connection, error) {
	return rp.Open(n.Network)
}

// ChurnSpec configures a Poisson connection arrival/departure workload with
// a mixed-criticality admission policy (internal/churn, DESIGN.md §14).
type ChurnSpec = churn.Spec

// ChurnStats counts a churn generator's activity.
type ChurnStats = churn.Stats

// ParseChurnSpec parses the compact -churn command-line specification
// (rate=...,hold=...,hard=...,firm=...,fbud=...,bbud=...,seed=...).
var ParseChurnSpec = churn.ParseSpec

// AttachChurn applies the spec's per-level budgets and starts the churn
// arrival process on the network, returning its live statistics.
func (n *Network) AttachChurn(spec ChurnSpec) (*ChurnStats, error) {
	return churn.Attach(n.Network, spec)
}

// ModeSpec configures the graceful-degradation operating-mode protocol: a
// hysteresis state machine over per-window deadline-miss ratio and backlog
// (internal/mode, DESIGN.md §15). Set it on Config.Mode / MultiConfig.Mode.
type ModeSpec = mode.Spec

// OperatingMode is the system operating mode (Normal, Degraded, Critical).
type OperatingMode = mode.Mode

// Operating modes, ordered by severity.
const (
	ModeNormal   = mode.Normal
	ModeDegraded = mode.Degraded
	ModeCritical = mode.Critical
)

// ParseModeSpec parses the compact -mode command-line specification
// (window=...,dmiss=...,cmiss=...,dback=...,cback=...,exit=...,cool=...,bcap=...).
var ParseModeSpec = mode.ParseSpec
