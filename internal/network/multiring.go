package network

import (
	"fmt"

	"ccredf/internal/analysis"
	"ccredf/internal/des"
	"ccredf/internal/obs"
	"ccredf/internal/ring"
	"ccredf/internal/sched"
	"ccredf/internal/stats"
	"ccredf/internal/timing"
	"ccredf/internal/topology"
)

// MultiConfig configures a multi-ring network: one full single-ring Config per
// ring of the topology (each ring keeps its own slot loop, TCMA master,
// arbiter and fault plan), glued together by the topology's bridges.
type MultiConfig struct {
	// Topo is the compiled topology. Required.
	Topo *topology.Topology
	// RingConfigs holds one Config per ring, in ring-index order. Each
	// Config.Sim is overwritten with the shared kernel; everything else —
	// protocol, params, faults, observers — is per ring.
	RingConfigs []Config
	// RelaySlots is the store-and-forward latency of a bridge in slot times
	// of the downstream ring (default 1: the bridge re-queues a fragment
	// train one slot after receiving it).
	RelaySlots int
	// BridgeCap is the per-bridge relay-queue capacity enabling EDF-aware
	// backpressure (0 leaves only the hard safety cap — see
	// sched.BridgeQueue). Typically set from mode.Spec.BridgeCap.
	BridgeCap int
}

// CrossRequest describes a cross-ring real-time connection: a periodic stream
// from node Src of ring SrcRing to the destination set Dests on ring DstRing,
// with an end-to-end relative deadline.
type CrossRequest struct {
	SrcRing int
	Src     int
	DstRing int
	Dests   ring.NodeSet
	// Period, Slots and Deadline are as in sched.Connection; Deadline is
	// end-to-end (source release to final-ring delivery).
	Period   timing.Time
	Slots    int
	Deadline timing.Time
	// Crit is the connection's criticality, carried by every ring segment
	// (so per-ring admission and mode gating see it) and by the bridge
	// relays (so backpressure evicts lower-criticality traffic first). The
	// zero value is CritHard, matching single-ring connections.
	Crit sched.Criticality
}

// CrossStats are the end-to-end measurements of one cross-ring connection.
type CrossStats struct {
	// Released counts source-segment releases; Delivered end-to-end
	// completions on the destination ring; Expired relays dropped at a
	// bridge (deadline already blown or bridge dead); Misses deliveries
	// after the end-to-end deadline; Dropped relays evicted by bridge
	// backpressure or the hard safety cap.
	Released, Delivered, Expired, Misses, Dropped int64
	// Latency is the end-to-end (source release → final delivery) histogram.
	Latency *stats.Histogram
}

// CrossConn is one opened cross-ring connection.
type CrossConn struct {
	ID  int
	Req CrossRequest
	// Route is the bridge-index sequence the connection crosses.
	Route []int
	// Segments are the per-ring legs, SegDeadlines their decomposed relative
	// deadlines (per segment, excluding relay time).
	Segments     []topology.Segment
	SegDeadlines []timing.Time
	// offsets[k] is the relative deadline of segment k measured from the
	// source release: Σ_{j≤k} SegDeadlines[j] + k·relay.
	offsets []timing.Time
	// res is the end-to-end admission reservation (segment 0's connection ID
	// on the source ring lives in res.Segments[0].Conn.ID).
	res   sched.RouteReservation
	stats CrossStats
}

// Stats returns the connection's live end-to-end statistics.
func (c *CrossConn) Stats() *CrossStats { return &c.stats }

// flight is one message of a cross-ring connection in transit: which
// connection, which segment it is currently traversing, and the source
// release time its end-to-end deadline is anchored to.
type flight struct {
	cc       *CrossConn
	seg      int
	release0 timing.Time
}

// bridgeState is the store-and-forward relay of one bridge: a deadline-aware
// queue (EDF across all cross-ring connections sharing the bridge) drained at
// one fragment train per relay interval. congested mirrors the queue's
// backpressure signal so toggles can be propagated (end-to-end admission,
// typed event) exactly once per edge.
type bridgeState struct {
	queue     sched.BridgeQueue
	congested bool
}

// MultiNet is a multi-ring CCR-EDF network: R single-ring Networks sharing
// one event kernel and run together by the single-ring executor
// (Network.Run), bridges store-and-forwarding cross-ring traffic between
// them, and an end-to-end admission controller spanning every ring segment
// plus bridge relay of a route. All cross-ring bookkeeping happens in
// delivery callbacks off the gated allocation-free slot loop.
type MultiNet struct {
	topo    *topology.Topology
	sim     *des.Simulator
	rings   []*Network
	bridges []*bridgeState
	e2e     *sched.EndToEnd
	relay   []timing.Time // relay latency per bridge (downstream slot times)

	cross  map[int]*CrossConn
	nextID int
	// flights[ri] maps a relayed message's ID on ring ri (segments ≥ 1) to
	// its flight; srcConns[ri] maps a segment-0 connection ID to its owner.
	flights  []map[int64]*flight
	srcConns []map[int]*CrossConn
}

// NewMulti builds a multi-ring network over the topology.
func NewMulti(cfg MultiConfig) (*MultiNet, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("network: nil topology")
	}
	if len(cfg.RingConfigs) != cfg.Topo.Rings() {
		return nil, fmt.Errorf("network: %d ring configs for %d rings", len(cfg.RingConfigs), cfg.Topo.Rings())
	}
	if cfg.RelaySlots <= 0 {
		cfg.RelaySlots = 1
	}
	m := &MultiNet{
		topo:  cfg.Topo,
		sim:   des.New(),
		cross: make(map[int]*CrossConn),
	}
	adms := make([]*sched.Admission, 0, cfg.Topo.Rings())
	for i := range cfg.RingConfigs {
		rc := cfg.RingConfigs[i]
		rc.Sim = m.sim
		if rc.Params.Nodes != cfg.Topo.Ring(i).Nodes() {
			return nil, fmt.Errorf("network: ring %d params for %d nodes, topology says %d",
				i, rc.Params.Nodes, cfg.Topo.Ring(i).Nodes())
		}
		net, err := New(rc)
		if err != nil {
			return nil, fmt.Errorf("network: ring %d: %w", i, err)
		}
		ri := i
		net.OnDeliver(func(msg *sched.Message, now timing.Time) { m.onRingDeliver(ri, msg, now) })
		m.rings = append(m.rings, net)
		adms = append(adms, net.Admission())
		m.flights = append(m.flights, make(map[int64]*flight))
		m.srcConns = append(m.srcConns, make(map[int]*CrossConn))
	}
	for bi := range cfg.Topo.Bridges() {
		bs := &bridgeState{}
		bs.queue.Cap = cfg.BridgeCap
		m.bridges = append(m.bridges, bs)
		// The relay interval is measured in the downstream ring's slot time:
		// the bridge must wait for a granted slot on the ring it forwards
		// into. Resolve the downstream ring as the B side; for symmetric
		// params the distinction is moot, and the admission test covers both
		// directions through the per-ring density checks anyway.
		b := cfg.Topo.Bridges()[bi]
		slot := m.rings[b.RingB].Params().SlotTime()
		m.relay = append(m.relay, timing.Time(cfg.RelaySlots)*slot)
	}
	for _, net := range m.rings {
		net.group = m.rings
	}
	m.e2e = sched.NewEndToEnd(adms, len(m.bridges))
	return m, nil
}

// Now returns the current simulated time.
func (m *MultiNet) Now() timing.Time { return m.sim.Now() }

// Run advances every ring's slot loop to time until. The rings share one
// kernel and one group, so this is any ring's Run.
func (m *MultiNet) Run(until timing.Time) { m.rings[0].Run(until) }

// RunSlots advances by approximately count slots of ring 0.
func (m *MultiNet) RunSlots(count int64) {
	period := m.rings[0].Params().SlotTime() + m.rings[0].Params().MaxHandoverTime()
	m.Run(m.sim.Now() + timing.Time(count)*period)
}

// Rings returns the ring count.
func (m *MultiNet) Rings() int { return len(m.rings) }

// Ring returns ring i's network.
func (m *MultiNet) Ring(i int) *Network { return m.rings[i] }

// Topo returns the topology.
func (m *MultiNet) Topo() *topology.Topology { return m.topo }

// EndToEnd returns the end-to-end admission controller.
func (m *MultiNet) EndToEnd() *sched.EndToEnd { return m.e2e }

// RelayLatency returns the store-and-forward latency of bridge bi.
func (m *MultiNet) RelayLatency(bi int) timing.Time { return m.relay[bi] }

// BridgeAlive reports whether bridge bi is up: the bridge is one physical
// station on two rings, so it is dead as soon as either ring's fault plan has
// crashed its node there.
func (m *MultiNet) BridgeAlive(bi int) bool {
	b := m.topo.Bridges()[bi]
	return m.rings[b.RingA].NodeAlive(b.NodeA) && m.rings[b.RingB].NodeAlive(b.NodeB)
}

// Bound returns the analytical end-to-end worst-case latency bound of an
// admitted cross connection (analysis.EndToEndBound): per-segment decomposed
// deadline plus that ring's Equation 4 protocol latency, plus the
// store-and-forward latency of every bridge on the route.
func (m *MultiNet) Bound(cc *CrossConn) timing.Time {
	segs := make([]analysis.SegmentBound, len(cc.Segments))
	for k, s := range cc.Segments {
		segs[k] = analysis.SegmentBound{
			Ring:     s.Ring,
			Deadline: cc.SegDeadlines[k],
			WCL:      m.rings[s.Ring].Params().WorstCaseLatency(),
		}
	}
	relays := make([]timing.Time, len(cc.Route))
	for k, bi := range cc.Route {
		relays[k] = m.relay[bi]
	}
	return analysis.EndToEndBound(segs, relays)
}

// BridgeStats returns the relay/expiry counters of bridge bi.
func (m *MultiNet) BridgeStats(bi int) (relayed, expired int64) {
	return m.bridges[bi].queue.Relayed, m.bridges[bi].queue.Expired
}

// BridgeBackpressure returns bridge bi's bounded-queue counters: relays
// evicted by backpressure, drops against the hard safety cap, the high-water
// queue length and the live congestion signal.
func (m *MultiNet) BridgeBackpressure(bi int) (dropped, overflowed int64, maxLen int, congested bool) {
	q := &m.bridges[bi].queue
	return q.Dropped, q.Overflowed, q.MaxLen, q.Congested()
}

// BridgeTotals sums the bounded-queue counters over every bridge, for
// summaries: total backpressure drops, safety-cap overflows, and the highest
// per-bridge queue length seen anywhere.
func (m *MultiNet) BridgeTotals() (dropped, overflowed int64, maxLen int) {
	for _, bs := range m.bridges {
		dropped += bs.queue.Dropped
		overflowed += bs.queue.Overflowed
		if bs.queue.MaxLen > maxLen {
			maxLen = bs.queue.MaxLen
		}
	}
	return dropped, overflowed, maxLen
}

// OpenCross admits and starts a cross-ring connection: the route's segments
// are decomposed (topology.Segments), the end-to-end deadline is split across
// them (sched.DecomposeDeadline), every ring on the route runs its own
// admission test and every bridge its relay-budget test atomically
// (sched.EndToEnd), and on acceptance the source ring starts the periodic
// stream. Same-ring requests degenerate to a single segment with no bridges
// and remain fully end-to-end accounted.
func (m *MultiNet) OpenCross(req CrossRequest) (*CrossConn, error) {
	if req.SrcRing < 0 || req.SrcRing >= len(m.rings) || req.DstRing < 0 || req.DstRing >= len(m.rings) {
		return nil, fmt.Errorf("network: cross rings %d→%d outside topology", req.SrcRing, req.DstRing)
	}
	segs, err := m.topo.Segments(req.SrcRing, req.Src, req.DstRing, req.Dests)
	if err != nil {
		return nil, err
	}
	route := m.topo.Route(req.SrcRing, req.DstRing)
	var relayTotal timing.Time
	for _, bi := range route {
		relayTotal += m.relay[bi]
	}
	// DecomposeDeadline charges one uniform relay per bridge; with per-bridge
	// relay latencies we split the non-relay budget and keep exact offsets
	// below.
	deadline := req.Deadline
	if deadline <= relayTotal {
		return nil, fmt.Errorf("network: end-to-end deadline %v does not cover %v of bridge relay", deadline, relayTotal)
	}
	segD, err := sched.DecomposeDeadline(deadline-relayTotal, len(segs), 0, 0)
	if err != nil {
		return nil, err
	}
	segReqs := make([]sched.SegmentRequest, len(segs))
	for k, s := range segs {
		segReqs[k] = sched.SegmentRequest{
			Ring: s.Ring,
			Conn: sched.Connection{
				Src:      s.Src,
				Dests:    s.Dests,
				Period:   req.Period,
				Slots:    req.Slots,
				Deadline: segD[k],
				Crit:     req.Crit,
			},
		}
	}
	// Relay utilisation: the bridge forwards Slots fragment trains... one
	// train of Slots slots per period, so its share of the relay server is
	// Slots·t_slot/Period on the downstream ring.
	res, err := m.e2e.Request(segReqs, route, relayShare(req, m.rings[req.DstRing].Params()))
	if err != nil {
		return nil, err
	}
	m.nextID++
	cc := &CrossConn{
		ID:           m.nextID,
		Req:          req,
		Route:        append([]int(nil), route...),
		Segments:     segs,
		SegDeadlines: segD,
		res:          res,
		stats:        CrossStats{Latency: stats.NewHistogram()},
	}
	cc.offsets = make([]timing.Time, len(segs))
	var acc timing.Time
	for k := range segs {
		acc += segD[k]
		if k > 0 {
			acc += m.relay[route[k-1]]
		}
		cc.offsets[k] = acc
	}
	if err := m.rings[req.SrcRing].StartAdmitted(res.Segments[0].Conn); err != nil {
		m.e2e.Release(res)
		return nil, err
	}
	m.cross[cc.ID] = cc
	m.srcConns[req.SrcRing][res.Segments[0].Conn.ID] = cc
	return cc, nil
}

// relayShare is the fraction of a bridge's relay capacity one connection
// consumes: Slots downstream slot times per Period.
func relayShare(req CrossRequest, downstream timing.Params) float64 {
	return float64(req.Slots) * float64(downstream.SlotTime()) / float64(req.Period)
}

// CloseCross stops a cross-ring connection and releases its capacity on every
// ring and bridge of the route.
func (m *MultiNet) CloseCross(id int) bool {
	cc, ok := m.cross[id]
	if !ok {
		return false
	}
	srcRing := cc.Req.SrcRing
	srcID := cc.res.Segments[0].Conn.ID
	// The source ring owns segment 0's admission slot; CloseConnection
	// releases it, so drop it from the reservation before the bulk release.
	m.rings[srcRing].CloseConnection(srcID)
	delete(m.srcConns[srcRing], srcID)
	rest := cc.res
	rest.Segments = rest.Segments[1:]
	m.e2e.Release(rest)
	delete(m.cross, id)
	return true
}

// CrossConns returns every cross connection ever opened, in ID order.
func (m *MultiNet) CrossConns() []*CrossConn {
	out := make([]*CrossConn, 0, len(m.cross))
	for id := 1; id <= m.nextID; id++ {
		if cc, ok := m.cross[id]; ok {
			out = append(out, cc)
		}
	}
	return out
}

// onRingDeliver is the glue between the single-ring engines and the topology:
// every completed message on any ring is checked against the cross-ring
// bookkeeping. Segment-0 completions are recognised by their connection ID,
// relayed segments by message ID. Everything here is off the gated
// allocation-free slot path — closures and map traffic are acceptable.
func (m *MultiNet) onRingDeliver(ri int, msg *sched.Message, now timing.Time) {
	if fl, ok := m.flights[ri][msg.ID]; ok {
		delete(m.flights[ri], msg.ID)
		m.segmentDone(fl, now)
		return
	}
	if msg.Conn != 0 {
		if cc, ok := m.srcConns[ri][msg.Conn]; ok {
			cc.stats.Released++
			m.segmentDone(&flight{cc: cc, seg: 0, release0: msg.Release}, now)
		}
	}
}

// segmentDone advances a flight past a completed segment: final segments
// close the end-to-end accounting, earlier ones park the flight at the next
// bridge and schedule the relay drain.
func (m *MultiNet) segmentDone(fl *flight, now timing.Time) {
	cc := fl.cc
	if fl.seg == len(cc.Segments)-1 {
		latency := now - fl.release0
		cc.stats.Delivered++
		cc.stats.Latency.Observe(latency)
		if latency > cc.Req.Deadline {
			cc.stats.Misses++
		}
		return
	}
	bi := cc.Route[fl.seg]
	next := fl.seg + 1
	fl.seg = next
	dropped, overflow := m.bridges[bi].queue.Push(&sched.Relay{
		Deadline: fl.release0 + cc.offsets[next],
		Enqueued: now,
		Crit:     cc.Req.Crit,
		Data:     fl,
	})
	if dropped != nil {
		dfl := dropped.Data.(*flight)
		dfl.cc.stats.Dropped++
		kind := obs.KindBridgeDrop
		if overflow {
			kind = obs.KindBridgeOverflow
		}
		m.emitBridge(bi, kind, now, 0)
	}
	m.syncCongestion(bi, now)
	m.sim.PostAfter(m.relay[bi], func(t timing.Time) { m.drainBridge(bi, t) })
}

// emitBridge emits a bridge event (Node = bridge index) on the downstream
// ring's pipeline, so bridge activity shows up in that ring's trace.
func (m *MultiNet) emitBridge(bi int, kind obs.Kind, now timing.Time, busy int) {
	b := m.topo.Bridges()[bi]
	net := m.rings[b.RingB]
	net.pipe.Emit(obs.Event{Kind: kind, Time: now, Slot: net.slot, Node: bi, Busy: busy})
}

// syncCongestion propagates a change in bridge bi's backpressure signal: the
// end-to-end admission controller starts (or stops) refusing routes over the
// bridge, and the toggle is emitted as a typed event (Busy=1 congested,
// Busy=0 cleared).
func (m *MultiNet) syncCongestion(bi int, now timing.Time) {
	bs := m.bridges[bi]
	cur := bs.queue.Congested()
	if cur == bs.congested {
		return
	}
	bs.congested = cur
	m.e2e.SetCongested(bi, cur)
	busy := 0
	if cur {
		busy = 1
	}
	m.emitBridge(bi, obs.KindBridgeCongested, now, busy)
}

// drainBridge services one relay interval of bridge bi: expired relays (and
// everything parked at a dead bridge — a rebooted station holds no state) are
// shed, then the earliest-deadline relay is forwarded onto its next ring.
func (m *MultiNet) drainBridge(bi int, now timing.Time) {
	q := &m.bridges[bi].queue
	defer m.syncCongestion(bi, now)
	if !m.BridgeAlive(bi) {
		for _, r := range q.ExpireBefore(timing.Forever) {
			r.Data.(*flight).cc.stats.Expired++
		}
		return
	}
	for _, r := range q.ExpireBefore(now) {
		r.Data.(*flight).cc.stats.Expired++
	}
	r := q.Pop()
	if r == nil {
		return
	}
	fl := r.Data.(*flight)
	cc := fl.cc
	seg := cc.Segments[fl.seg]
	net := m.rings[seg.Ring]
	if !net.NodeAlive(seg.Src) {
		// The downstream half of the bridge station is dead: the relay can
		// never be re-queued, shed it.
		q.Expired++
		q.Relayed--
		cc.stats.Expired++
		return
	}
	msg, err := net.SubmitMessage(sched.ClassRealTime, seg.Src, seg.Dests, cc.Req.Slots, fl.release0+cc.offsets[fl.seg]-now)
	if err != nil {
		q.Expired++
		q.Relayed--
		cc.stats.Expired++
		return
	}
	m.flights[seg.Ring][msg.ID] = fl
}
