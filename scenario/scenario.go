// Package scenario loads complete simulation scenarios from JSON: network
// configuration, logical real-time connections, traffic generators and run
// horizon. It lets cmd/ccr-sim (and user tooling) describe reproducible
// experiments declaratively:
//
//	{
//	  "nodes": 8,
//	  "protocol": "ccr-edf",
//	  "exact_edf": true,
//	  "horizon_slots": 20000,
//	  "connections": [
//	    {"src": 0, "dests": [4], "period_slots": 10, "slots": 1}
//	  ],
//	  "poisson": [
//	    {"node": 2, "class": "be", "mean_interarrival_slots": 25, "slots": 1}
//	  ]
//	}
//
// Durations are expressed in slot times, the protocol's natural unit.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"

	"ccredf"
)

// Scenario is a declarative simulation description.
type Scenario struct {
	// Nodes is the ring size (required for single-ring scenarios, 2-64).
	// Mutually exclusive with Topology.
	Nodes int `json:"nodes,omitempty"`
	// Topology declares a multi-ring fabric instead of a single ring: ring
	// sizes plus the bridge stations joining them. When set, the scalar
	// protocol/physics settings apply to every ring, the plain workload
	// stanzas (connections, poisson, …) run on ring 0, Faults applies to
	// ring 0 (use RingFaults for others), and CrossConnections declares
	// end-to-end traffic across bridges.
	Topology *ccredf.TopologySpec `json:"topology,omitempty"`
	// Protocol is "ccr-edf" (default), "cc-fpr" or "tdma".
	Protocol string `json:"protocol,omitempty"`
	// ExactEDF enables full-resolution deadline arbitration.
	ExactEDF bool `json:"exact_edf,omitempty"`
	// DisableSpatialReuse restricts to one transmission per slot.
	DisableSpatialReuse bool `json:"disable_spatial_reuse,omitempty"`
	// Seed drives all randomness (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// HorizonSlots is the run length in worst-case slot periods (required).
	HorizonSlots int64 `json:"horizon_slots"`
	// LossProb injects per-fragment loss; CorruptProb per-fragment CRC
	// failures; Reliable enables retransmission.
	LossProb    float64 `json:"loss_prob,omitempty"`
	CorruptProb float64 `json:"corrupt_prob,omitempty"`
	Reliable    bool    `json:"reliable,omitempty"`
	// DropLate discards already-late real-time messages.
	DropLate bool `json:"drop_late,omitempty"`
	// SecondaryRequests enables the two-requests-per-node extension.
	SecondaryRequests bool `json:"secondary_requests,omitempty"`
	// TraceCapacity retains protocol trace records (-1 = unbounded).
	TraceCapacity int `json:"trace_capacity,omitempty"`
	// CheckInvariants attaches the protocol-invariant observer
	// (Metrics.InvariantViolations must stay zero).
	CheckInvariants bool `json:"check_invariants,omitempty"`
	// DataCheck attaches the data-channel codec verifier.
	DataCheck bool `json:"data_check,omitempty"`
	// Faults declares deterministic fault injection: control-channel drop
	// probabilities, handover failures and node crash/restart schedules.
	// Omitted (or all-zero) leaves the run byte-identical to a fault-free
	// network. With a topology, Faults targets ring 0.
	Faults *ccredf.FaultPlan `json:"faults,omitempty"`
	// RingFaults assigns fault plans to specific rings of a topology —
	// including bridge stations, whose crash partitions the fabric.
	RingFaults []RingFault `json:"ring_faults,omitempty"`
	// Churn starts a seeded Poisson connection arrival/departure workload
	// with mixed-criticality admission (internal/churn). With a topology it
	// runs on ring 0. Omitted leaves the run byte-identical to a
	// churn-free network.
	Churn *ccredf.ChurnSpec `json:"churn,omitempty"`
	// Mode enables the graceful-degradation operating-mode protocol: a
	// hysteresis state machine over per-window miss ratio and backlog that
	// gates firm admissions in Degraded mode and sheds best-effort traffic in
	// Critical mode (internal/mode). With a topology the spec applies to
	// every ring and its bridge_cap bounds the bridge queues with EDF-aware
	// backpressure. Omitted leaves the run byte-identical to a mode-free
	// network.
	Mode *ccredf.ModeSpec `json:"mode,omitempty"`

	// Physics overrides (zero = default).
	LinkLengthM      float64   `json:"link_length_m,omitempty"`
	LinkLengthsM     []float64 `json:"link_lengths_m,omitempty"` // per-link, len == nodes
	BitRate          int64     `json:"bit_rate,omitempty"`
	SlotPayloadBytes int       `json:"slot_payload_bytes,omitempty"`

	// Workloads.
	Connections []Connection `json:"connections,omitempty"`
	Poisson     []Poisson    `json:"poisson,omitempty"`
	Bursty      []Bursty     `json:"bursty,omitempty"`
	Video       []Video      `json:"video,omitempty"`
	// CrossConnections are end-to-end real-time connections across bridges
	// (topology scenarios only).
	CrossConnections []CrossConnection `json:"cross_connections,omitempty"`
}

// RingFault targets one ring of a topology with a fault plan.
type RingFault struct {
	Ring   int              `json:"ring"`
	Faults ccredf.FaultPlan `json:"faults"`
}

// CrossConnection describes a cross-ring real-time connection in slot units
// (slot times of the source ring).
type CrossConnection struct {
	SrcRing       int   `json:"src_ring"`
	Src           int   `json:"src"`
	DstRing       int   `json:"dst_ring"`
	Dests         []int `json:"dests"`
	PeriodSlots   int64 `json:"period_slots"`
	Slots         int   `json:"slots"`
	DeadlineSlots int64 `json:"deadline_slots,omitempty"` // 0 = period
}

// Connection describes a logical real-time connection in slot units.
type Connection struct {
	Src           int   `json:"src"`
	Dests         []int `json:"dests"`
	PeriodSlots   int64 `json:"period_slots"`
	Slots         int   `json:"slots"`
	DeadlineSlots int64 `json:"deadline_slots,omitempty"` // 0 = period
	// Force bypasses the admission test (overload studies).
	Force bool `json:"force,omitempty"`
}

// Poisson describes a memoryless background source.
type Poisson struct {
	Node                  int    `json:"node"`
	Class                 string `json:"class,omitempty"` // "be" (default) or "nrt"
	MeanInterarrivalSlots int64  `json:"mean_interarrival_slots"`
	Slots                 int    `json:"slots"`
	MaxSlots              int    `json:"max_slots,omitempty"`
	RelDeadlineSlots      int64  `json:"rel_deadline_slots,omitempty"`
	Dest                  string `json:"dest,omitempty"` // uniform|neighbour|opposite|local|hotspot
}

// Bursty describes a two-state bursty source.
type Bursty struct {
	Node                   int    `json:"node"`
	Class                  string `json:"class,omitempty"`
	BurstInterarrivalSlots int64  `json:"burst_interarrival_slots"`
	MeanBurstLen           int    `json:"mean_burst_len"`
	MeanIdleSlots          int64  `json:"mean_idle_slots"`
	Slots                  int    `json:"slots"`
	RelDeadlineSlots       int64  `json:"rel_deadline_slots,omitempty"`
}

// Video describes a VBR stream; Guaranteed reserves its peak rate.
type Video struct {
	Node               int   `json:"node"`
	Dest               int   `json:"dest"`
	FrameIntervalSlots int64 `json:"frame_interval_slots"`
	GOP                []int `json:"gop"`
	Guaranteed         bool  `json:"guaranteed,omitempty"`
}

// Load parses a scenario from JSON, rejecting unknown fields.
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks scenario-level consistency: field ranges, probability
// bounds and — critically for anything that feeds user-supplied JSON into
// the simulator, like ccr-served — that every node index in every workload
// refers to a node that actually exists on the ring. Errors are
// field-qualified ("connections[2].src …") so API clients can pinpoint the
// offending input. Network-level checks (admission) happen again in Build.
func (s *Scenario) Validate() error {
	if s.Topology != nil {
		if s.Nodes != 0 {
			return fmt.Errorf("scenario: nodes and topology are mutually exclusive")
		}
		if err := s.Topology.Validate(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		if s.LinkLengthsM != nil {
			return fmt.Errorf("scenario: link_lengths_m is unsupported with a topology (uniform link_length_m applies to every ring)")
		}
		if err := s.validateMulti(); err != nil {
			return err
		}
	} else {
		if s.Nodes < 2 || s.Nodes > 64 {
			return fmt.Errorf("scenario: nodes %d outside [2,64]", s.Nodes)
		}
		if len(s.RingFaults) > 0 {
			return fmt.Errorf("scenario: ring_faults requires a topology")
		}
		if len(s.CrossConnections) > 0 {
			return fmt.Errorf("scenario: cross_connections requires a topology")
		}
	}
	if s.HorizonSlots <= 0 {
		return fmt.Errorf("scenario: horizon_slots must be positive")
	}
	switch s.Protocol {
	case "", "ccr-edf", "cc-fpr", "tdma":
	default:
		return fmt.Errorf("scenario: unknown protocol %q", s.Protocol)
	}
	if s.LossProb < 0 || s.LossProb > 1 {
		return fmt.Errorf("scenario: loss_prob %g outside [0,1]", s.LossProb)
	}
	if s.CorruptProb < 0 || s.CorruptProb > 1 {
		return fmt.Errorf("scenario: corrupt_prob %g outside [0,1]", s.CorruptProb)
	}
	if s.TraceCapacity < -1 {
		return fmt.Errorf("scenario: trace_capacity %d invalid (-1 = unbounded, 0 = off)", s.TraceCapacity)
	}
	if s.LinkLengthM < 0 {
		return fmt.Errorf("scenario: link_length_m %g negative", s.LinkLengthM)
	}
	if s.LinkLengthsM != nil && len(s.LinkLengthsM) != s.Nodes {
		return fmt.Errorf("scenario: link_lengths_m has %d entries, want nodes (%d)", len(s.LinkLengthsM), s.Nodes)
	}
	for i, l := range s.LinkLengthsM {
		if l <= 0 {
			return fmt.Errorf("scenario: link_lengths_m[%d] %g not positive", i, l)
		}
	}
	if s.BitRate < 0 {
		return fmt.Errorf("scenario: bit_rate %d negative", s.BitRate)
	}
	if s.SlotPayloadBytes < 0 {
		return fmt.Errorf("scenario: slot_payload_bytes %d negative", s.SlotPayloadBytes)
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(s.ring0()); err != nil {
			return fmt.Errorf("scenario: faults: %w", err)
		}
	}
	if s.Churn != nil {
		if !s.Churn.Enabled() {
			return fmt.Errorf("scenario: churn: rate_per_sec must be positive")
		}
		if err := s.Churn.Normalised().Validate(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if s.Mode != nil {
		if err := s.Mode.Normalised().Validate(); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	for i, c := range s.Connections {
		if err := s.checkNode(c.Src); err != nil {
			return fmt.Errorf("scenario: connections[%d].src: %w", i, err)
		}
		if len(c.Dests) == 0 {
			return fmt.Errorf("scenario: connections[%d].dests is empty", i)
		}
		for j, d := range c.Dests {
			if err := s.checkNode(d); err != nil {
				return fmt.Errorf("scenario: connections[%d].dests[%d]: %w", i, j, err)
			}
			if d == c.Src {
				return fmt.Errorf("scenario: connections[%d].dests[%d] equals src %d", i, j, c.Src)
			}
		}
		if c.PeriodSlots <= 0 {
			return fmt.Errorf("scenario: connections[%d].period_slots %d not positive", i, c.PeriodSlots)
		}
		if c.Slots <= 0 {
			return fmt.Errorf("scenario: connections[%d].slots %d not positive", i, c.Slots)
		}
		if err := checkMessageSlots(c.Slots); err != nil {
			return fmt.Errorf("scenario: connections[%d].slots %w", i, err)
		}
		if c.DeadlineSlots < 0 {
			return fmt.Errorf("scenario: connections[%d].deadline_slots %d negative", i, c.DeadlineSlots)
		}
	}
	for i, p := range s.Poisson {
		if err := s.checkNode(p.Node); err != nil {
			return fmt.Errorf("scenario: poisson[%d].node: %w", i, err)
		}
		if p.MeanInterarrivalSlots <= 0 {
			return fmt.Errorf("scenario: poisson[%d].mean_interarrival_slots %d not positive", i, p.MeanInterarrivalSlots)
		}
		if p.Slots <= 0 {
			return fmt.Errorf("scenario: poisson[%d].slots %d not positive", i, p.Slots)
		}
		if err := checkMessageSlots(p.Slots); err != nil {
			return fmt.Errorf("scenario: poisson[%d].slots %w", i, err)
		}
		if p.MaxSlots < 0 {
			return fmt.Errorf("scenario: poisson[%d].max_slots %d negative", i, p.MaxSlots)
		}
		if err := checkMessageSlots(p.MaxSlots); err != nil {
			return fmt.Errorf("scenario: poisson[%d].max_slots %w", i, err)
		}
		if p.RelDeadlineSlots < 0 {
			return fmt.Errorf("scenario: poisson[%d].rel_deadline_slots %d negative", i, p.RelDeadlineSlots)
		}
		if err := checkClass(p.Class); err != nil {
			return fmt.Errorf("scenario: poisson[%d].class: %w", i, err)
		}
		switch p.Dest {
		case "", "uniform", "neighbour", "opposite", "local", "hotspot":
		default:
			return fmt.Errorf("scenario: poisson[%d].dest: unknown pattern %q", i, p.Dest)
		}
	}
	for i, b := range s.Bursty {
		if err := s.checkNode(b.Node); err != nil {
			return fmt.Errorf("scenario: bursty[%d].node: %w", i, err)
		}
		if b.BurstInterarrivalSlots <= 0 {
			return fmt.Errorf("scenario: bursty[%d].burst_interarrival_slots %d not positive", i, b.BurstInterarrivalSlots)
		}
		if b.MeanBurstLen <= 0 {
			return fmt.Errorf("scenario: bursty[%d].mean_burst_len %d not positive", i, b.MeanBurstLen)
		}
		if b.MeanIdleSlots <= 0 {
			return fmt.Errorf("scenario: bursty[%d].mean_idle_slots %d not positive", i, b.MeanIdleSlots)
		}
		if b.Slots <= 0 {
			return fmt.Errorf("scenario: bursty[%d].slots %d not positive", i, b.Slots)
		}
		if err := checkMessageSlots(b.Slots); err != nil {
			return fmt.Errorf("scenario: bursty[%d].slots %w", i, err)
		}
		if b.RelDeadlineSlots < 0 {
			return fmt.Errorf("scenario: bursty[%d].rel_deadline_slots %d negative", i, b.RelDeadlineSlots)
		}
		if err := checkClass(b.Class); err != nil {
			return fmt.Errorf("scenario: bursty[%d].class: %w", i, err)
		}
	}
	for i, v := range s.Video {
		if err := s.checkNode(v.Node); err != nil {
			return fmt.Errorf("scenario: video[%d].node: %w", i, err)
		}
		if err := s.checkNode(v.Dest); err != nil {
			return fmt.Errorf("scenario: video[%d].dest: %w", i, err)
		}
		if v.Dest == v.Node {
			return fmt.Errorf("scenario: video[%d].dest equals node %d", i, v.Node)
		}
		if v.FrameIntervalSlots <= 0 {
			return fmt.Errorf("scenario: video[%d].frame_interval_slots %d not positive", i, v.FrameIntervalSlots)
		}
		if len(v.GOP) == 0 {
			return fmt.Errorf("scenario: video[%d].gop is empty", i)
		}
		for j, g := range v.GOP {
			if g <= 0 {
				return fmt.Errorf("scenario: video[%d].gop[%d] %d not positive", i, j, g)
			}
			if err := checkMessageSlots(g); err != nil {
				return fmt.Errorf("scenario: video[%d].gop[%d] %w", i, j, err)
			}
		}
	}
	return nil
}

// ring0 is the size of the ring plain workloads run on: the single ring, or
// ring 0 of a topology.
func (s *Scenario) ring0() int {
	if s.Topology != nil {
		return s.Topology.Rings[0]
	}
	return s.Nodes
}

// checkNode verifies a node index against the (ring-0) ring size.
func (s *Scenario) checkNode(n int) error {
	if n0 := s.ring0(); n < 0 || n >= n0 {
		return fmt.Errorf("node %d outside ring [0,%d)", n, n0)
	}
	return nil
}

// checkMessageSlots verifies a message size against the largest message the
// network carries (its data packet counts fragments in 16 bits).
func checkMessageSlots(slots int) error {
	if slots > ccredf.MaxMessageSlots {
		return fmt.Errorf("%d above the %d-slot message limit", slots, ccredf.MaxMessageSlots)
	}
	return nil
}

// validateMulti checks the topology-only stanzas with field-qualified errors.
func (s *Scenario) validateMulti() error {
	rings := s.Topology.Rings
	for i, rf := range s.RingFaults {
		if rf.Ring < 0 || rf.Ring >= len(rings) {
			return fmt.Errorf("scenario: ring_faults[%d].ring %d outside [0,%d)", i, rf.Ring, len(rings))
		}
		if err := rf.Faults.Validate(rings[rf.Ring]); err != nil {
			return fmt.Errorf("scenario: ring_faults[%d].faults: %w", i, err)
		}
	}
	for i, c := range s.CrossConnections {
		if c.SrcRing < 0 || c.SrcRing >= len(rings) {
			return fmt.Errorf("scenario: cross_connections[%d].src_ring %d outside [0,%d)", i, c.SrcRing, len(rings))
		}
		if c.DstRing < 0 || c.DstRing >= len(rings) {
			return fmt.Errorf("scenario: cross_connections[%d].dst_ring %d outside [0,%d)", i, c.DstRing, len(rings))
		}
		if c.Src < 0 || c.Src >= rings[c.SrcRing] {
			return fmt.Errorf("scenario: cross_connections[%d].src: node %d outside ring %d [0,%d)", i, c.Src, c.SrcRing, rings[c.SrcRing])
		}
		if len(c.Dests) == 0 {
			return fmt.Errorf("scenario: cross_connections[%d].dests is empty", i)
		}
		for j, d := range c.Dests {
			if d < 0 || d >= rings[c.DstRing] {
				return fmt.Errorf("scenario: cross_connections[%d].dests[%d]: node %d outside ring %d [0,%d)", i, j, d, c.DstRing, rings[c.DstRing])
			}
			if c.SrcRing == c.DstRing && d == c.Src {
				return fmt.Errorf("scenario: cross_connections[%d].dests[%d] equals src %d", i, j, c.Src)
			}
		}
		if c.PeriodSlots <= 0 {
			return fmt.Errorf("scenario: cross_connections[%d].period_slots %d not positive", i, c.PeriodSlots)
		}
		if c.Slots <= 0 {
			return fmt.Errorf("scenario: cross_connections[%d].slots %d not positive", i, c.Slots)
		}
		if err := checkMessageSlots(c.Slots); err != nil {
			return fmt.Errorf("scenario: cross_connections[%d].slots %w", i, err)
		}
		if c.DeadlineSlots < 0 {
			return fmt.Errorf("scenario: cross_connections[%d].deadline_slots %d negative", i, c.DeadlineSlots)
		}
	}
	return nil
}

func checkClass(c string) error {
	switch c {
	case "", "be", "nrt":
		return nil
	default:
		return fmt.Errorf("unknown class %q", c)
	}
}

func classOf(c string) ccredf.Class {
	if c == "nrt" {
		return ccredf.ClassNonRealTime
	}
	return ccredf.ClassBestEffort
}

func (s *Scenario) destPicker(d string) ccredf.DestPicker {
	switch d {
	case "neighbour":
		return ccredf.NeighbourDest
	case "opposite":
		return ccredf.OppositeDest
	case "local":
		return ccredf.LocalDest(0.3)
	case "hotspot":
		return ccredf.HotspotDest(0, 0.7)
	default:
		return ccredf.UniformDest
	}
}

// Result is a built scenario ready to run.
type Result struct {
	// Net is the single-ring network; nil when the scenario declares a
	// topology (Multi is set instead).
	Net *ccredf.Network
	// Multi is the multi-ring network of a topology scenario.
	Multi *ccredf.MultiNetwork
	// Connections are the opened real-time connections, in file order.
	Connections []ccredf.Connection
	// Cross are the opened cross-ring connections, in file order.
	Cross []*ccredf.CrossConn
	// Churn is the live statistics of the churn stanza's generator, nil
	// when the scenario declares none.
	Churn *ccredf.ChurnStats
	// Horizon is the absolute simulated time to run to.
	Horizon ccredf.Time
}

// Build constructs the network and attaches every workload. Call
// Result.Net.Run(Result.Horizon) (or Result.Multi.Run) to execute.
func (s *Scenario) Build() (*Result, error) {
	if s.Topology != nil {
		return s.buildMulti()
	}
	cfg := ccredf.DefaultConfig(s.Nodes)
	switch s.Protocol {
	case "cc-fpr":
		cfg.Protocol = ccredf.CCFPR
	case "tdma":
		cfg.Protocol = ccredf.TDMA
	}
	cfg.ExactEDF = s.ExactEDF
	cfg.DisableSpatialReuse = s.DisableSpatialReuse
	cfg.LossProb = s.LossProb
	cfg.CorruptProb = s.CorruptProb
	cfg.Reliable = s.Reliable
	cfg.DropLate = s.DropLate
	cfg.SecondaryRequests = s.SecondaryRequests
	cfg.TraceCapacity = s.TraceCapacity
	cfg.CheckInvariants = s.CheckInvariants
	cfg.DataCheck = s.DataCheck
	cfg.Faults = s.Faults
	cfg.Mode = s.Mode
	cfg.Seed = s.Seed
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if s.LinkLengthM > 0 {
		cfg.Params.LinkLengthM = s.LinkLengthM
	}
	if s.LinkLengthsM != nil {
		cfg.Params.LinkLengthsM = s.LinkLengthsM
	}
	if s.BitRate > 0 {
		cfg.Params.BitRate = s.BitRate
	}
	if s.SlotPayloadBytes > 0 {
		cfg.Params.SlotPayloadBytes = s.SlotPayloadBytes
	}
	net, err := ccredf.New(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Net: net}
	if err := s.attachWorkloads(net, cfg.Seed, res); err != nil {
		return nil, err
	}
	period := net.Params().SlotTime() + net.Params().MaxHandoverTime()
	res.Horizon = ccredf.Time(s.HorizonSlots) * period
	return res, nil
}

// attachWorkloads opens the plain connection list and starts the traffic
// generators on net (the single ring, or ring 0 of a topology).
func (s *Scenario) attachWorkloads(net *ccredf.Network, seed uint64, res *Result) error {
	slot := net.Params().SlotTime()
	for i, c := range s.Connections {
		conn := ccredf.Connection{
			Src:      c.Src,
			Dests:    ccredf.Nodes(c.Dests...),
			Period:   ccredf.Time(c.PeriodSlots) * slot,
			Deadline: ccredf.Time(c.DeadlineSlots) * slot,
			Slots:    c.Slots,
		}
		var opened ccredf.Connection
		var err error
		if c.Force {
			opened, err = net.ForceConnection(conn)
		} else {
			opened, err = net.OpenConnection(conn)
		}
		if err != nil {
			return fmt.Errorf("scenario: connection %d: %w", i, err)
		}
		res.Connections = append(res.Connections, opened)
	}
	for i, p := range s.Poisson {
		net.AttachPoisson(ccredf.Poisson{
			Node:             p.Node,
			Class:            classOf(p.Class),
			MeanInterarrival: ccredf.Time(p.MeanInterarrivalSlots) * slot,
			Slots:            p.Slots,
			MaxSlots:         p.MaxSlots,
			RelDeadline:      ccredf.Time(p.RelDeadlineSlots) * slot,
			Dest:             s.destPicker(p.Dest),
		}, seed+uint64(i)+100)
	}
	for i, b := range s.Bursty {
		net.AttachBursty(ccredf.Bursty{
			Node:              b.Node,
			Class:             classOf(b.Class),
			BurstInterarrival: ccredf.Time(b.BurstInterarrivalSlots) * slot,
			MeanBurstLen:      b.MeanBurstLen,
			MeanIdle:          ccredf.Time(b.MeanIdleSlots) * slot,
			Slots:             b.Slots,
			RelDeadline:       ccredf.Time(b.RelDeadlineSlots) * slot,
		}, seed+uint64(i)+200)
	}
	for i, v := range s.Video {
		vs := ccredf.VideoStream{
			Node: v.Node, Dest: v.Dest,
			FrameInterval: ccredf.Time(v.FrameIntervalSlots) * slot,
			GOP:           v.GOP,
		}
		if v.Guaranteed {
			opened, err := net.OpenConnection(vs.Connection())
			if err != nil {
				return fmt.Errorf("scenario: video %d: %w", i, err)
			}
			res.Connections = append(res.Connections, opened)
		} else {
			net.AttachVideoBestEffort(vs)
		}
	}
	if s.Churn != nil {
		spec := *s.Churn
		if spec.Seed == 0 {
			// Derive the churn stream from the scenario seed so a seedless
			// stanza still replays identically.
			spec.Seed = seed + 300
		}
		st, err := net.AttachChurn(spec)
		if err != nil {
			return fmt.Errorf("scenario: churn: %w", err)
		}
		res.Churn = st
	}
	return nil
}

// buildMulti constructs a multi-ring network: the scalar protocol and physics
// settings stamp every ring's config, the plain workloads run on ring 0, and
// cross-ring connections are admitted end-to-end in file order.
func (s *Scenario) buildMulti() (*Result, error) {
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	mcfg := ccredf.DefaultMultiConfig(*s.Topology, seed)
	for i := range mcfg.Rings {
		rc := &mcfg.Rings[i]
		switch s.Protocol {
		case "cc-fpr":
			rc.Protocol = ccredf.CCFPR
		case "tdma":
			rc.Protocol = ccredf.TDMA
		}
		rc.ExactEDF = s.ExactEDF
		rc.DisableSpatialReuse = s.DisableSpatialReuse
		rc.LossProb = s.LossProb
		rc.CorruptProb = s.CorruptProb
		rc.Reliable = s.Reliable
		rc.DropLate = s.DropLate
		rc.SecondaryRequests = s.SecondaryRequests
		rc.CheckInvariants = s.CheckInvariants
		if s.LinkLengthM > 0 {
			rc.Params.LinkLengthM = s.LinkLengthM
		}
		if s.BitRate > 0 {
			rc.Params.BitRate = s.BitRate
		}
		if s.SlotPayloadBytes > 0 {
			rc.Params.SlotPayloadBytes = s.SlotPayloadBytes
		}
	}
	mcfg.Mode = s.Mode
	mcfg.Rings[0].Faults = s.Faults
	for i := range s.RingFaults {
		rf := &s.RingFaults[i]
		mcfg.Rings[rf.Ring].Faults = &rf.Faults
	}
	net, err := ccredf.NewMulti(mcfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Multi: net}
	for i, c := range s.CrossConnections {
		slot := net.RingNetwork(c.SrcRing).Params().SlotTime()
		deadline := c.DeadlineSlots
		if deadline == 0 {
			deadline = c.PeriodSlots
		}
		cc, err := net.OpenCross(ccredf.CrossRequest{
			SrcRing:  c.SrcRing,
			Src:      c.Src,
			DstRing:  c.DstRing,
			Dests:    ccredf.Nodes(c.Dests...),
			Period:   ccredf.Time(c.PeriodSlots) * slot,
			Slots:    c.Slots,
			Deadline: ccredf.Time(deadline) * slot,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario: cross connection %d: %w", i, err)
		}
		res.Cross = append(res.Cross, cc)
	}
	if err := s.attachWorkloads(net.RingNetwork(0), seed, res); err != nil {
		return nil, err
	}
	p := net.RingNetwork(0).Params()
	res.Horizon = ccredf.Time(s.HorizonSlots) * (p.SlotTime() + p.MaxHandoverTime())
	return res, nil
}
