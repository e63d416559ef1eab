package ccredf

import (
	"ccredf/internal/network"
	"ccredf/internal/ring"
	"ccredf/internal/sched"
	"ccredf/internal/timing"
)

// Time is simulated time in integer picoseconds (see internal/timing).
type Time = timing.Time

// Common durations.
const (
	Nanosecond  = timing.Nanosecond
	Microsecond = timing.Microsecond
	Millisecond = timing.Millisecond
	Second      = timing.Second
	Forever     = timing.Forever
)

// Params is the physical configuration of a ring (Equations 1–6 live on it).
type Params = timing.Params

// DefaultParams returns the baseline physical parameters for an n-node ring.
func DefaultParams(n int) Params { return timing.DefaultParams(n) }

// Class is a traffic class (Table 1).
type Class = sched.Class

// Traffic classes, highest priority first.
const (
	ClassRealTime    = sched.ClassRealTime
	ClassBestEffort  = sched.ClassBestEffort
	ClassNonRealTime = sched.ClassNonRealTime
)

// Connection describes a logical real-time connection (Section 6).
type Connection = sched.Connection

// Criticality is a connection's mixed-criticality level (DESIGN.md §14).
type Criticality = sched.Criticality

// Criticality levels, most important first. The zero value is CritHard, so
// a plain Connection is the paper's guaranteed connection.
const (
	CritHard       = sched.CritHard
	CritFirm       = sched.CritFirm
	CritBestEffort = sched.CritBestEffort
)

// ParseCriticality parses "hard", "firm" or "best_effort".
var ParseCriticality = sched.ParseCriticality

// MaxMessageSlots is the largest message size, in slots: the data packet
// counts fragments in 16 bits.
const MaxMessageSlots = sched.MaxMessageSlots

// Message is one schedulable message.
type Message = sched.Message

// NodeSet is a destination set (single, multicast or broadcast).
type NodeSet = ring.NodeSet

// Node returns the singleton destination set {node}.
func Node(node int) NodeSet { return ring.Node(node) }

// Nodes builds a destination set from node indices.
func Nodes(nodes ...int) NodeSet { return ring.NodeSetOf(nodes...) }

// Broadcast returns the destination set of every node except src on an
// n-node ring.
func Broadcast(src, n int) NodeSet { return ring.MustNew(n).Broadcast(src) }

// Metrics aggregates a run's measurements.
type Metrics = network.Metrics

// ConnStats tracks one logical real-time connection.
type ConnStats = network.ConnStats
