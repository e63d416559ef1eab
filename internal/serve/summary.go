package serve

import (
	"encoding/json"

	"ccredf"
	"ccredf/internal/network"
)

// SummarySchema versions the Summary wire format. Consumers should reject
// schemas newer than they understand.
const SummarySchema = 1

// ConnSummary reports one logical real-time connection's delivery record.
type ConnSummary struct {
	ID            int     `json:"id"`
	Src           int     `json:"src"`
	Dests         []int   `json:"dests"`
	Released      int64   `json:"released"`
	Delivered     int64   `json:"delivered"`
	NetMisses     int64   `json:"net_misses"`
	UserMisses    int64   `json:"user_misses"`
	LatencyMeanUs float64 `json:"latency_mean_us,omitempty"`
	LatencyP99Us  float64 `json:"latency_p99_us,omitempty"`
	LatencyMaxUs  float64 `json:"latency_max_us,omitempty"`
	JitterP99Us   float64 `json:"jitter_p99_us,omitempty"`
}

// Summary is the machine-readable result of one simulation run — the shared
// output type of ccr-sim -json and the ccr-served result API. It is fully
// deterministic for a given (scenario, seed, engine version): struct fields
// encode in declaration order and encoding/json sorts map keys, so Encode
// yields byte-identical output for identical runs. Deliberately absent:
// wall-clock time, hostnames, anything non-reproducible — those live on the
// job record, not in the cacheable result.
type Summary struct {
	Schema      int              `json:"schema"`
	Engine      string           `json:"engine"`
	Key         string           `json:"key,omitempty"`
	Snapshot    network.Snapshot `json:"snapshot"`
	Connections []ConnSummary    `json:"connections,omitempty"`
	// Rings and Cross report multi-ring runs (SummarizeMulti): one snapshot
	// per ring plus the end-to-end record of every cross-ring connection.
	// Both stay absent on single-ring runs, keeping their JSON unchanged.
	Rings []RingSummary  `json:"rings,omitempty"`
	Cross []CrossSummary `json:"cross,omitempty"`
}

// RingSummary is one ring's snapshot in a multi-ring run.
type RingSummary struct {
	Ring     int              `json:"ring"`
	Snapshot network.Snapshot `json:"snapshot"`
}

// CrossSummary reports one cross-ring connection's end-to-end record,
// including the analytical latency bound it is held to (experiment E22).
type CrossSummary struct {
	ID           int     `json:"id"`
	SrcRing      int     `json:"src_ring"`
	Src          int     `json:"src"`
	DstRing      int     `json:"dst_ring"`
	Dests        []int   `json:"dests"`
	Route        []int   `json:"route"`
	Released     int64   `json:"released"`
	Delivered    int64   `json:"delivered"`
	Expired      int64   `json:"expired"`
	Misses       int64   `json:"misses"`
	LatencyP99Us float64 `json:"latency_p99_us,omitempty"`
	LatencyMaxUs float64 `json:"latency_max_us,omitempty"`
	BoundUs      float64 `json:"bound_us"`
}

// Summarize captures a finished run. key is the scenario's content hash
// (empty when the run was not content-addressed, e.g. flag-driven ccr-sim).
func Summarize(net *ccredf.Network, key string) Summary {
	s := Summary{
		Schema:   SummarySchema,
		Engine:   EngineVersion,
		Key:      key,
		Snapshot: net.Snapshot(),
	}
	for _, id := range net.Connections() {
		cs, ok := net.ConnStats(id)
		if !ok {
			continue
		}
		c := ConnSummary{
			ID:         id,
			Src:        cs.Conn.Src,
			Dests:      cs.Conn.Dests.Nodes(),
			Released:   cs.Released,
			Delivered:  cs.Delivered,
			NetMisses:  cs.NetMisses,
			UserMisses: cs.UserMisses,
		}
		if cs.Latency.Count() > 0 {
			c.LatencyMeanUs = cs.Latency.Mean().Micros()
			c.LatencyP99Us = cs.Latency.Quantile(0.99).Micros()
			c.LatencyMaxUs = cs.Latency.Max().Micros()
		}
		if cs.Jitter.Count() > 0 {
			c.JitterP99Us = cs.Jitter.Quantile(0.99).Micros()
		}
		s.Connections = append(s.Connections, c)
	}
	return s
}

// SummarizeMulti captures a finished multi-ring run: an aggregated snapshot
// (counters summed across rings; rates and latency live in the per-ring
// entries), one full snapshot per ring, and the end-to-end record of every
// cross-ring connection with its analytical bound.
func SummarizeMulti(net *ccredf.MultiNetwork, key string) Summary {
	s := Summary{
		Schema: SummarySchema,
		Engine: EngineVersion,
		Key:    key,
	}
	for i := 0; i < net.Rings(); i++ {
		snap := net.Ring(i).Snapshot()
		s.Rings = append(s.Rings, RingSummary{Ring: i, Snapshot: snap})
		s.Snapshot.Add(&snap)
		// The aggregate mode is the worst (most severe) ring mode.
		if snap.Mode != "" && modeRank(snap.Mode) > modeRank(s.Snapshot.Mode) {
			s.Snapshot.Mode = snap.Mode
		}
	}
	s.Snapshot.BridgeDropped, s.Snapshot.BridgeOverflowed, s.Snapshot.BridgeMaxQueue = net.BridgeTotals()
	s.Snapshot.Protocol = s.Rings[0].Snapshot.Protocol
	s.Snapshot.SlotTime = s.Rings[0].Snapshot.SlotTime
	s.Snapshot.UMax = s.Rings[0].Snapshot.UMax
	s.Snapshot.ElapsedUs = net.Now().Micros()
	s.Snapshot.Latency = map[string]network.LatencySummary{}
	for _, cc := range net.CrossConns() {
		st := cc.Stats()
		c := CrossSummary{
			ID:        cc.ID,
			SrcRing:   cc.Req.SrcRing,
			Src:       cc.Req.Src,
			DstRing:   cc.Req.DstRing,
			Dests:     cc.Req.Dests.Nodes(),
			Route:     cc.Route,
			Released:  st.Released,
			Delivered: st.Delivered,
			Expired:   st.Expired,
			Misses:    st.Misses,
			BoundUs:   net.Bound(cc).Micros(),
		}
		if st.Latency.Count() > 0 {
			c.LatencyP99Us = st.Latency.Quantile(0.99).Micros()
			c.LatencyMaxUs = st.Latency.Max().Micros()
		}
		s.Cross = append(s.Cross, c)
	}
	return s
}

// modeRank orders operating-mode names by severity for aggregation ("" <
// normal < degraded < critical).
func modeRank(m string) int {
	switch m {
	case "normal":
		return 1
	case "degraded":
		return 2
	case "critical":
		return 3
	default:
		return 0
	}
}

// DeadlinesMissed reports whether any real-time deadline was missed (or a
// late message dropped) during the run — the signal scripts gate on.
func (s Summary) DeadlinesMissed() bool {
	return s.Snapshot.NetMisses+s.Snapshot.UserMisses+s.Snapshot.LateDrops > 0
}

// Encode marshals the summary deterministically as compact JSON with a
// trailing newline (one result = one line, mirroring the event stream).
func (s Summary) Encode() ([]byte, error) {
	return encodeJSONLine(s)
}

// encodeJSONLine is the shared deterministic result encoding: compact JSON,
// one trailing newline.
func encodeJSONLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
