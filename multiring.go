package ccredf

import (
	"fmt"

	"ccredf/internal/network"
	"ccredf/internal/topology"
)

// TopologySpec declares a multi-ring topology: ring sizes plus the bridge
// stations joining them (see internal/topology). It is also the JSON shape of
// the scenario "topology" stanza.
type TopologySpec = topology.Spec

// TopologyBridge joins node NodeA of ring RingA to node NodeB of ring RingB —
// one physical station sitting on both rings.
type TopologyBridge = topology.Bridge

// CrossRequest describes a cross-ring real-time connection with an
// end-to-end deadline.
type CrossRequest = network.CrossRequest

// CrossConn is an opened cross-ring connection with its route, per-segment
// deadline decomposition and end-to-end statistics.
type CrossConn = network.CrossConn

// CrossStats are the end-to-end measurements of one cross-ring connection.
type CrossStats = network.CrossStats

// MultiConfig configures a multi-ring network: the topology, one Config per
// ring, and the bridge store-and-forward latency in slots.
type MultiConfig struct {
	// Topology declares the rings and bridges. Required.
	Topology TopologySpec
	// Rings holds one single-ring Config per ring. Each must have
	// Params.Nodes matching the topology's ring size; Protocol, faults and
	// instrumentation are per ring.
	Rings []Config
	// RelaySlots is each bridge's store-and-forward latency in downstream
	// slot times (default 1).
	RelaySlots int
	// Mode enables the operating-mode protocol fabric-wide: every ring whose
	// own Config.Mode is nil inherits this spec, and the spec's BridgeCap
	// bounds each bridge queue with EDF-aware backpressure. Nil disables.
	Mode *ModeSpec
}

// DefaultMultiConfig returns a MultiConfig for the given ring-of-rings spec
// with default per-ring parameters, CCR-EDF arbitration everywhere, and
// per-ring seeds derived from seed (seed+i for ring i) so rings draw from
// independent streams.
func DefaultMultiConfig(spec TopologySpec, seed uint64) MultiConfig {
	cfg := MultiConfig{Topology: spec}
	for i, n := range spec.Rings {
		rc := DefaultConfig(n)
		rc.Seed = seed + uint64(i)
		cfg.Rings = append(cfg.Rings, rc)
	}
	return cfg
}

// MultiNetwork is a simulated multi-ring CCR-EDF fabric: every ring runs the
// full single-ring machinery (own slot loop, TCMA master, arbiter) on one
// shared deterministic clock, and bridges store-and-forward cross-ring
// traffic through deadline-aware EDF queues. It embeds the engine; see
// internal/network.MultiNet for the full surface.
type MultiNetwork struct {
	*network.MultiNet
	cfg      MultiConfig
	ringNets []*Network
}

// NewMulti builds a multi-ring network from cfg.
func NewMulti(cfg MultiConfig) (*MultiNetwork, error) {
	topo, err := topology.New(cfg.Topology)
	if err != nil {
		return nil, err
	}
	if len(cfg.Rings) != topo.Rings() {
		return nil, fmt.Errorf("ccredf: %d ring configs for %d rings", len(cfg.Rings), topo.Rings())
	}
	ringCfgs := make([]network.Config, len(cfg.Rings))
	for i, rc := range cfg.Rings {
		ringMode := rc.Mode
		if ringMode == nil {
			ringMode = cfg.Mode
		}
		if ringCfgs[i], err = engineConfig(rc, ringMode); err != nil {
			return nil, fmt.Errorf("ccredf: rings[%d]: %w", i, err)
		}
	}
	bridgeCap := 0
	if cfg.Mode != nil {
		bridgeCap = cfg.Mode.BridgeCap
	}
	inner, err := network.NewMulti(network.MultiConfig{
		Topo:        topo,
		RingConfigs: ringCfgs,
		RelaySlots:  cfg.RelaySlots,
		BridgeCap:   bridgeCap,
	})
	if err != nil {
		return nil, err
	}
	mn := &MultiNetwork{MultiNet: inner, cfg: cfg}
	for i := 0; i < inner.Rings(); i++ {
		mn.ringNets = append(mn.ringNets, instrument(inner.Ring(i), cfg.Rings[i]))
	}
	return mn, nil
}

// Config returns the configuration the network was built with.
func (m *MultiNetwork) Config() MultiConfig { return m.cfg }

// RingNetwork returns ring i wrapped in the single-ring facade, so per-ring
// workloads (AttachPoisson, OpenConnection, services…) work unchanged on a
// multi-ring fabric.
func (m *MultiNetwork) RingNetwork(i int) *Network { return m.ringNets[i] }
