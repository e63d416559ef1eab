package network

import (
	"encoding/json"
	"io"

	"ccredf/internal/mode"
	"ccredf/internal/sched"
	"ccredf/internal/stats"
)

// Snapshot is a machine-readable summary of a run, stable for tooling
// (ccr-sim -json, dashboards, regression diffs).
type Snapshot struct {
	Protocol  string  `json:"protocol"`
	Nodes     int     `json:"nodes"`
	SlotTime  float64 `json:"slot_time_us"`
	UMax      float64 `json:"u_max"`
	ElapsedUs float64 `json:"elapsed_us"`

	Slots              int64 `json:"slots"`
	SlotsWithData      int64 `json:"slots_with_data"`
	Grants             int64 `json:"grants"`
	MessagesDelivered  int64 `json:"messages_delivered"`
	MessagesLost       int64 `json:"messages_lost"`
	FragmentsDelivered int64 `json:"fragments_delivered"`
	FragmentsDropped   int64 `json:"fragments_dropped"`
	Retransmits        int64 `json:"retransmits"`
	NetMisses          int64 `json:"net_deadline_misses"`
	UserMisses         int64 `json:"user_deadline_misses"`
	LateDrops          int64 `json:"late_drops"`
	BytesDelivered     int64 `json:"bytes_delivered"`
	WireErrors         int64 `json:"wire_errors"`
	Violations         int64 `json:"invariant_violations"`
	FaultsInjected     int64 `json:"faults_injected,omitempty"`
	FaultsDetected     int64 `json:"faults_detected,omitempty"`
	FaultsRecovered    int64 `json:"faults_recovered,omitempty"`
	NodeCrashes        int64 `json:"node_crashes,omitempty"`

	// Mixed-criticality admission outcomes (AdmitConnection) and per-level
	// network-deadline misses. All zero — and absent from the JSON — on
	// static-scenario runs that never exercise mixed-criticality admission.
	AdmittedHard int64 `json:"admitted_hard,omitempty"`
	AdmittedFirm int64 `json:"admitted_firm,omitempty"`
	AdmittedBE   int64 `json:"admitted_best_effort,omitempty"`
	EvictedHard  int64 `json:"evicted_hard,omitempty"`
	EvictedFirm  int64 `json:"evicted_firm,omitempty"`
	EvictedBE    int64 `json:"evicted_best_effort,omitempty"`
	RejectedHard int64 `json:"rejected_hard,omitempty"`
	RejectedFirm int64 `json:"rejected_firm,omitempty"`
	RejectedBE   int64 `json:"rejected_best_effort,omitempty"`
	MissedHard   int64 `json:"missed_hard,omitempty"`
	MissedFirm   int64 `json:"missed_firm,omitempty"`
	MissedBE     int64 `json:"missed_best_effort,omitempty"`

	// Operating-mode protocol state (internal/mode). Mode is empty — and the
	// whole block absent from the JSON — when the protocol is disabled.
	Mode                string `json:"mode,omitempty"`
	ModeTransitions     int64  `json:"mode_transitions,omitempty"`
	ModeDegradedEntries int64  `json:"mode_degraded_entries,omitempty"`
	ModeCriticalEntries int64  `json:"mode_critical_entries,omitempty"`
	ModeGated           int64  `json:"mode_gated,omitempty"`
	ModeShedBE          int64  `json:"mode_shed_best_effort,omitempty"`

	// Bridge backpressure counters (multi-ring runs; see sched.BridgeQueue).
	BridgeDropped    int64 `json:"bridge_dropped,omitempty"`
	BridgeOverflowed int64 `json:"bridge_overflowed,omitempty"`
	BridgeMaxQueue   int   `json:"bridge_max_queue,omitempty"`

	GapTimeUs       float64                   `json:"gap_time_us"`
	ReuseFactor     float64                   `json:"reuse_factor"`
	AdmittedU       float64                   `json:"admitted_utilisation"`
	ThroughputMBps  float64                   `json:"throughput_mbps"`
	FairnessJain    float64                   `json:"fairness_jain"`
	QueueDepth      int                       `json:"queue_depth"`
	Latency         map[string]LatencySummary `json:"latency"`
	NodeSent        []int64                   `json:"node_sent"`
	ConnectionCount int                       `json:"connections"`
}

// Add sums o's counters into s: the run, fault, admission, mode and bridge
// counters plus Nodes, QueueDepth and ConnectionCount. Identity, rates,
// latency, the mode name and BridgeMaxQueue are not sums and stay as they
// are. Multi-ring summaries and the service's lifetime totals both add up
// runs with it.
func (s *Snapshot) Add(o *Snapshot) {
	s.Nodes += o.Nodes
	s.Slots += o.Slots
	s.SlotsWithData += o.SlotsWithData
	s.Grants += o.Grants
	s.MessagesDelivered += o.MessagesDelivered
	s.MessagesLost += o.MessagesLost
	s.FragmentsDelivered += o.FragmentsDelivered
	s.FragmentsDropped += o.FragmentsDropped
	s.Retransmits += o.Retransmits
	s.NetMisses += o.NetMisses
	s.UserMisses += o.UserMisses
	s.LateDrops += o.LateDrops
	s.BytesDelivered += o.BytesDelivered
	s.WireErrors += o.WireErrors
	s.Violations += o.Violations
	s.FaultsInjected += o.FaultsInjected
	s.FaultsDetected += o.FaultsDetected
	s.FaultsRecovered += o.FaultsRecovered
	s.NodeCrashes += o.NodeCrashes
	s.AdmittedHard += o.AdmittedHard
	s.AdmittedFirm += o.AdmittedFirm
	s.AdmittedBE += o.AdmittedBE
	s.EvictedHard += o.EvictedHard
	s.EvictedFirm += o.EvictedFirm
	s.EvictedBE += o.EvictedBE
	s.RejectedHard += o.RejectedHard
	s.RejectedFirm += o.RejectedFirm
	s.RejectedBE += o.RejectedBE
	s.MissedHard += o.MissedHard
	s.MissedFirm += o.MissedFirm
	s.MissedBE += o.MissedBE
	s.ModeTransitions += o.ModeTransitions
	s.ModeDegradedEntries += o.ModeDegradedEntries
	s.ModeCriticalEntries += o.ModeCriticalEntries
	s.ModeGated += o.ModeGated
	s.ModeShedBE += o.ModeShedBE
	s.BridgeDropped += o.BridgeDropped
	s.BridgeOverflowed += o.BridgeOverflowed
	s.QueueDepth += o.QueueDepth
	s.ConnectionCount += o.ConnectionCount
}

// LatencySummary summarises one latency histogram.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	MaxUs  float64 `json:"max_us"`
}

func summarise(h *stats.Histogram) LatencySummary {
	return LatencySummary{
		Count:  h.Count(),
		MeanUs: h.Mean().Micros(),
		P50Us:  h.Quantile(0.5).Micros(),
		P99Us:  h.Quantile(0.99).Micros(),
		MaxUs:  h.Max().Micros(),
	}
}

// Snapshot captures the network's current metrics.
func (n *Network) Snapshot() Snapshot {
	m := n.metrics
	elapsed := n.Now()
	s := Snapshot{
		Protocol:           n.proto.Name(),
		Nodes:              n.r.Nodes(),
		SlotTime:           n.params.SlotTime().Micros(),
		UMax:               n.params.UMax(),
		ElapsedUs:          elapsed.Micros(),
		Slots:              m.Slots.Value(),
		SlotsWithData:      m.SlotsWithData.Value(),
		Grants:             m.Grants.Value(),
		MessagesDelivered:  m.MessagesDelivered.Value(),
		MessagesLost:       m.MessagesLost.Value(),
		FragmentsDelivered: m.FragmentsDelivered.Value(),
		FragmentsDropped:   m.FragmentsDropped.Value(),
		Retransmits:        m.Retransmits.Value(),
		NetMisses:          m.NetDeadlineMisses.Value(),
		UserMisses:         m.UserDeadlineMisses.Value(),
		LateDrops:          m.LateDrops.Value(),
		BytesDelivered:     m.BytesDelivered.Value(),
		WireErrors:         m.WireErrors.Value(),
		Violations:         m.InvariantViolations.Value(),
		FaultsInjected:     m.FaultsInjected.Value(),
		FaultsDetected:     m.FaultsDetected.Value(),
		FaultsRecovered:    m.FaultsRecovered.Value(),
		NodeCrashes:        m.NodeCrashes.Value(),
		AdmittedHard:       m.CritAdmitted[sched.CritHard].Value(),
		AdmittedFirm:       m.CritAdmitted[sched.CritFirm].Value(),
		AdmittedBE:         m.CritAdmitted[sched.CritBestEffort].Value(),
		EvictedHard:        m.CritEvicted[sched.CritHard].Value(),
		EvictedFirm:        m.CritEvicted[sched.CritFirm].Value(),
		EvictedBE:          m.CritEvicted[sched.CritBestEffort].Value(),
		RejectedHard:       m.CritRejected[sched.CritHard].Value(),
		RejectedFirm:       m.CritRejected[sched.CritFirm].Value(),
		RejectedBE:         m.CritRejected[sched.CritBestEffort].Value(),
		MissedHard:         m.CritMisses[sched.CritHard].Value(),
		MissedFirm:         m.CritMisses[sched.CritFirm].Value(),
		MissedBE:           m.CritMisses[sched.CritBestEffort].Value(),
		GapTimeUs:          m.GapTime.Micros(),
		ReuseFactor:        m.SpatialReuseFactor(),
		AdmittedU:          n.adm.Utilisation(),
		FairnessJain:       stats.JainIndex(m.SentShares()),
		QueueDepth:         n.QueueDepth(),
		NodeSent:           append([]int64(nil), m.NodeSent...),
		ConnectionCount:    len(n.conns),
		Latency:            map[string]LatencySummary{},
	}
	if n.modeCtl != nil {
		s.Mode = n.modeCtl.Mode().String()
		s.ModeTransitions = n.modeCtl.Transitions()
		s.ModeDegradedEntries = n.modeCtl.Entries(mode.Degraded)
		s.ModeCriticalEntries = n.modeCtl.Entries(mode.Critical)
		s.ModeGated = m.ModeGated.Value()
		s.ModeShedBE = m.ModeShedBE.Value()
	}
	if elapsed > 0 {
		s.ThroughputMBps = float64(m.BytesDelivered.Value()) / elapsed.Seconds() / 1e6
	}
	for _, cl := range []sched.Class{sched.ClassRealTime, sched.ClassBestEffort, sched.ClassNonRealTime} {
		if h := m.Latency[cl]; h.Count() > 0 {
			s.Latency[cl.String()] = summarise(h)
		}
	}
	return s
}

// WriteSnapshot writes the snapshot as indented JSON.
func (n *Network) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(n.Snapshot())
}
