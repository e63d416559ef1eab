// Package network binds the CCR-EDF pieces into a runnable simulated ring:
// the slot engine that executes grants, samples collection-phase requests as
// the control packet passes each node, runs the arbitration one slot ahead
// (Figure 3), performs clock hand-over with its variable inter-slot gap
// (Figures 6–7), delivers data, and accounts deadlines, utilisation and
// spatial reuse. Fault injection (packet loss, master failure with
// timeout-based recovery — the paper's §8 future work) lives here too.
package network

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"ccredf/internal/core"
	"ccredf/internal/des"
	"ccredf/internal/fault"
	"ccredf/internal/mode"
	"ccredf/internal/node"
	"ccredf/internal/obs"
	"ccredf/internal/ring"
	"ccredf/internal/rng"
	"ccredf/internal/sched"
	"ccredf/internal/stats"
	"ccredf/internal/timing"
)

// Config configures one simulated network.
type Config struct {
	// Params is the physical timing model. Required.
	Params timing.Params
	// Protocol is the arbitration strategy (CCR-EDF or CC-FPR). Required.
	Protocol core.Protocol
	// DropLate discards real-time messages whose network-level deadline has
	// already passed instead of transmitting them late.
	DropLate bool
	// Reliable enables the intrinsic reliable-transmission service: lost
	// fragments are detected through the acknowledgement field of the
	// distribution packet and retransmitted.
	Reliable bool
	// LossProb is the per-fragment loss probability (fault injection).
	LossProb float64
	// CorruptProb is the per-fragment bit-corruption probability (fault
	// injection): the fragment arrives but its CRC-16 check fails at the
	// receiver, which discards it. With Reliable set the missing
	// acknowledgement triggers a retransmission, exactly like a loss.
	CorruptProb float64
	// Seed seeds the loss process.
	Seed uint64
	// Observers are attached to the protocol-event pipeline at
	// construction, after the built-in metrics observer. Instrumentation
	// that used to be configured here — tracing, codec verification,
	// invariant checking — is attached through AttachTracer,
	// AttachWireCheck, AttachDataCheck and AttachInvariantChecker (or any
	// custom observer via Attach).
	Observers []obs.Observer
	// SecondaryRequests enables the protocol extension in which every node
	// advertises its two best messages per collection round, letting the
	// CCR-EDF master pack more spatially disjoint grants per slot. The
	// extension doubles the request fields on the control channel; the
	// one-transmission-per-node rule still holds. Baseline protocols
	// ignore the secondary entries.
	SecondaryRequests bool
	// FailMasterAt kills the node elected master for the slot after this
	// one (0 disables): it stops clocking, triggering the timeout-based
	// recovery by the designated node.
	FailMasterAt int64
	// RecoveryTimeoutSlots is how many slot times the designated node waits
	// for a missing clock before restarting the network (default 2).
	RecoveryTimeoutSlots int
	// DesignatedNode restarts the network after a master loss (default 0).
	DesignatedNode int
	// Faults is an optional deterministic fault-injection plan (see
	// internal/fault): per-slot control-channel packet drops, clock-handover
	// failures and scheduled node crashes/restarts. Nil (or a zero plan)
	// disables injection entirely — the engine then performs one nil check
	// per hook and the run is byte-identical to a fault-free build. The
	// injector draws from its own seeded stream, so enabling faults never
	// perturbs the workload or loss randomness.
	Faults *fault.Plan
	// Mode is an optional operating-mode protocol (see internal/mode): a
	// hysteresis state machine over the per-window miss ratio and backlog
	// that drives graceful degradation — Degraded gates new firm
	// admissions, Critical also sheds best-effort traffic at release time.
	// Nil disables the controller entirely: the engine performs one nil
	// check per slot and the run is byte-identical to a mode-free build.
	Mode *mode.Spec
	// Sim, when non-nil, is the event kernel the network schedules on instead
	// of creating its own: networks on one kernel share its clock and its
	// scheduling sequence. The rings of a MultiNet share one, and NewMulti
	// groups them so that running any one advances all of them; networks
	// sharing a kernel outside a MultiNet are not run together.
	Sim *des.Simulator
}

// Metrics aggregates network-wide measurements for one run.
type Metrics struct {
	// Slots counts slots started; SlotsWithData those carrying ≥1 grant.
	Slots, SlotsWithData stats.Counter
	// Grants counts executed grants; WastedGrants grants whose message had
	// vanished by transmission time; DeniedRequests refused requests.
	Grants, WastedGrants, DeniedRequests stats.Counter
	// FragmentsDelivered / FragmentsDropped / Retransmits count data
	// packets arriving, lost to injected faults, and re-sent;
	// FragmentsCorrupted counts packets discarded by the receiver's CRC.
	FragmentsDelivered, FragmentsDropped, Retransmits, FragmentsCorrupted stats.Counter
	// MessagesDelivered counts fully delivered messages; MessagesLost
	// messages that can never complete (loss without the reliable service).
	MessagesDelivered, MessagesLost stats.Counter
	// NetDeadlineMisses and UserDeadlineMisses count real-time messages
	// completing after their network-level deadline (release + period) and
	// after the user-level deadline (+ Equation 4 latency) respectively.
	NetDeadlineMisses, UserDeadlineMisses stats.Counter
	// LateDrops counts RT messages discarded by DropLate.
	LateDrops stats.Counter
	// BytesDelivered counts payload bytes that reached a destination.
	BytesDelivered stats.Counter
	// WireErrors counts control packets that failed the codec round trip
	// (must stay zero).
	WireErrors stats.Counter
	// InvariantViolations counts arbitration outcomes that broke a
	// protocol invariant (must stay zero); Violations records the first
	// few descriptions.
	InvariantViolations stats.Counter
	// FaultsInjected / FaultsDetected / FaultsRecovered count the
	// deterministic injector's activity (internal/fault): every injected
	// fault must eventually be detected and recovered, so after a settled
	// run the three counters agree. NodeCrashes counts the subset of
	// injections that killed a station.
	FaultsInjected, FaultsDetected, FaultsRecovered, NodeCrashes stats.Counter
	// CritAdmitted / CritEvicted / CritRejected count mixed-criticality
	// admission outcomes per level (AdmitConnection); CritMisses counts
	// network-level deadline misses of connection messages per level.
	// Indexed by sched.Criticality.
	CritAdmitted, CritEvicted, CritRejected, CritMisses [sched.NumCriticalities]stats.Counter
	// ModeTransitions counts operating-mode changes; ModeEntries counts
	// entries into each mode (indexed by mode.Mode); ModeGated counts
	// admissions refused purely because of the operating mode; ModeShedBE
	// counts best-effort message releases shed in Critical mode.
	ModeTransitions, ModeGated, ModeShedBE stats.Counter
	ModeEntries                            [mode.NumModes]stats.Counter
	// Violations holds up to eight violation descriptions for debugging.
	Violations []string
	// GapTime accumulates inter-slot clock hand-over gaps.
	GapTime timing.Time
	// BusyLinks accumulates links occupied per slot (spatial reuse).
	BusyLinks int64
	// Latency is one histogram per traffic class.
	Latency [4]*stats.Histogram
	// NodeSent counts data fragments transmitted per source node;
	// NodeReceived counts fragments arriving per (first) destination.
	// Together they feed the fairness analysis (Jain index).
	NodeSent, NodeReceived []int64
}

func newMetrics(nodes int) *Metrics {
	m := &Metrics{
		NodeSent:     make([]int64, nodes),
		NodeReceived: make([]int64, nodes),
	}
	for i := range m.Latency {
		m.Latency[i] = stats.NewHistogram()
	}
	return m
}

// SentShares returns the per-node transmitted-fragment counts as floats,
// ready for stats.JainIndex.
func (m *Metrics) SentShares() []float64 {
	out := make([]float64, len(m.NodeSent))
	for i, v := range m.NodeSent {
		out[i] = float64(v)
	}
	return out
}

// SpatialReuseFactor returns the mean number of simultaneously busy links in
// slots that carried data: the aggregated-throughput multiplier over a
// single transmission per slot.
func (m *Metrics) SpatialReuseFactor() float64 {
	return stats.Ratio(m.BusyLinks, m.SlotsWithData.Value())
}

// ConnStats tracks one logical real-time connection.
type ConnStats struct {
	Conn       sched.Connection
	Released   int64
	Delivered  int64
	NetMisses  int64
	UserMisses int64
	Latency    *stats.Histogram
	// Jitter records |inter-completion gap − period| per consecutive
	// delivery pair: the delivery-time wobble an isochronous consumer
	// (video decoder, radar integrator) observes.
	Jitter       *stats.Histogram
	lastDelivery timing.Time
}

type connState struct {
	stats  *ConnStats
	active bool
	// release is the periodic release handler, bound once at connection
	// start so each period's rescheduling allocates no closure.
	release des.Handler
}

// Network is one simulated CCR-EDF (or CC-FPR) ring.
type Network struct {
	cfg     Config
	params  timing.Params
	tt      *timing.Table // precomputed Params quantities (see timing.Table)
	sim     *des.Simulator
	r       ring.Ring
	proto   core.Protocol
	nodes   []*node.Node
	adm     *sched.Admission
	rnd     *rng.Source
	metrics *Metrics

	slot      int64
	master    int
	slotStart timing.Time
	pending   core.Outcome // grants to execute at the next slot start
	next      core.Outcome // arbitration result awaiting slot end

	// sampled is the collection-phase request slate of the current slot:
	// node i's request at index i and, with the secondary-request
	// extension, its secondary at index N+i. Each visit writes its station's
	// entries in place. A station the round does not visit holds the empty
	// request core.Request{Node: i}, which is what its sample would write:
	// live holds the stations whose entries may be non-empty, and startSlot
	// empties those of them the round will not visit.
	sampled []core.Request
	live    ring.NodeSet

	// Hot-path memory discipline (DESIGN.md §9): the slot loop reuses all of
	// its per-round storage. sampledSpare double-buffers the request slate
	// (arbitrate swaps the two, with their live sets, so the slate an
	// arbitration event exposed stays intact until the next round), and
	// freeDeliveries pools the in-flight fragment-delivery events.
	sampledSpare   []core.Request
	liveSpare      ring.NodeSet
	freeDeliveries *delivery

	// Inline slot execution (DESIGN.md §9). The slot's fixed schedule — the
	// collection round, the arbitration, the slot end and the start of the
	// next slot — never passes through the event heap: it is recorded in pts
	// as engine points under sequence numbers reserved from the kernel
	// (des.ReserveSeq), and Run executes them directly, running the kernel's
	// queued events (deliveries, traffic generators, recovery timeouts)
	// exactly where the (time, seq) order interleaves them. ptNext is the
	// cursor into pts; an exhausted cursor is a silent ring awaiting a
	// recovery timeout. group holds every network on this kernel (just this
	// one, or all rings of a MultiNet): Run advances them together.
	pts    []enginePoint
	ptNext int
	group  []*Network

	// The collection round is one engine point (opCollect) whose time is
	// that of its next visit: hop is the number of hops from the master to
	// the station visited next, and the round visits, in ring order, only
	// the stations in queued (whose queues may be non-empty: set at every
	// enqueue, cleared by a visit that finds the queue empty) and in
	// detectPending — every station while an observer wants
	// KindRequestSampled. With nothing left to visit the point parks at the
	// last hop, so an enqueue during the round can still bring a station in
	// ahead of it (markQueued).
	queued ring.NodeSet
	hop    int

	msgSeq    int64
	conns     map[int]*connState
	onDeliver []func(*sched.Message, timing.Time)
	pipe      obs.Pipeline

	// Fault state. inj is nil unless Config.Faults enables injection; dead
	// is the set of currently crashed nodes (also used by the legacy
	// FailMasterAt path); detectPending holds crashed nodes whose failure
	// the collection round has not yet observed; collDropped remembers that
	// this slot's collection packet was injected away so endSlot can emit
	// the matching recovery event.
	inj           *fault.Injector
	dead          ring.NodeSet
	detectPending ring.NodeSet
	collDropped   bool

	// modeCtl is the operating-mode hysteresis controller, nil unless
	// Config.Mode enables the protocol. The slot loop pays one nil check;
	// window evaluation runs only at window boundaries.
	modeCtl *mode.Controller
}

// enginePoint is one inline-executed engine step: an operation to run at a
// simulated time under a sequence number reserved from the simulator, which
// fixes its order against queued events and other networks' points. The
// operation is an opcode rather than a bound handler: Run dispatches with
// direct method calls, where a des.Handler costs a closure indirection per
// point.
//
// Every visit of a collection round runs under the round point's one
// sequence number. That orders the visits against queued events and other
// networks' points exactly as a number per visit reserved back to back
// would, since no other number can fall between those, and
// timing.NewTable checks that the visit times rise with the hop count.
type enginePoint struct {
	when timing.Time
	seq  uint64
	op   uint8
}

// enginePoint opcodes, in within-slot order.
const (
	opCollect uint8 = iota
	opArbitrate
	opEndSlot
	opStartSlot
)

// before reports whether p is ordered strictly before q.
func (p *enginePoint) before(q *enginePoint) bool {
	return p.when < q.when || (p.when == q.when && p.seq < q.seq)
}

// delivery is a pooled in-flight fragment: the des event payload for the
// arrival of one granted transmission. fire is bound into fn once, when the
// pool entry is first created, so scheduling a delivery in steady state
// allocates nothing.
type delivery struct {
	n    *Network
	m    *sched.Message
	g    core.Grant
	fn   des.Handler
	next *delivery
}

// newDelivery takes a pooled delivery (or grows the pool) and arms it.
func (n *Network) newDelivery(m *sched.Message, g core.Grant) *delivery {
	d := n.freeDeliveries
	if d == nil {
		d = &delivery{n: n}
		d.fn = d.fire
	} else {
		n.freeDeliveries = d.next
	}
	d.m, d.g = m, g
	return d
}

// fire releases the delivery back to the pool and completes the fragment.
// The pool release happens first so the deliver path (which may grant, emit
// and schedule further work) can reuse the slot.
func (d *delivery) fire(now timing.Time) {
	n, m, g := d.n, d.m, d.g
	d.m = nil
	d.next = n.freeDeliveries
	n.freeDeliveries = d
	n.deliver(m, g, now)
}

// New builds a network. The configuration must carry valid Params and a
// Protocol whose ring size matches.
func New(cfg Config) (*Network, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Protocol == nil {
		return nil, errors.New("network: nil protocol")
	}
	if cfg.LossProb < 0 || cfg.LossProb > 1 {
		return nil, fmt.Errorf("network: loss probability %v outside [0,1]", cfg.LossProb)
	}
	if cfg.CorruptProb < 0 || cfg.CorruptProb > 1 {
		return nil, fmt.Errorf("network: corruption probability %v outside [0,1]", cfg.CorruptProb)
	}
	if cfg.RecoveryTimeoutSlots <= 0 {
		cfg.RecoveryTimeoutSlots = 2
	}
	r, err := ring.New(cfg.Params.Nodes)
	if err != nil {
		return nil, err
	}
	if cfg.DesignatedNode < 0 || cfg.DesignatedNode >= r.Nodes() {
		return nil, fmt.Errorf("network: designated node %d outside ring", cfg.DesignatedNode)
	}
	sim := cfg.Sim
	if sim == nil {
		sim = des.New()
	}
	slate := r.Nodes()
	if cfg.SecondaryRequests {
		slate *= 2
	}
	n := &Network{
		cfg:          cfg,
		params:       cfg.Params,
		tt:           timing.NewTable(cfg.Params),
		sim:          sim,
		r:            r,
		proto:        cfg.Protocol,
		adm:          sched.NewAdmission(cfg.Params),
		rnd:          rng.New(cfg.Seed),
		metrics:      newMetrics(r.Nodes()),
		sampled:      make([]core.Request, slate),
		sampledSpare: make([]core.Request, slate),
		conns:        make(map[int]*connState),
		pts:          make([]enginePoint, 0, 3),
	}
	for i := range n.sampled {
		n.sampled[i] = core.Request{Node: i % r.Nodes()}
		n.sampledSpare[i] = n.sampled[i]
	}
	n.group = []*Network{n}
	if cfg.Faults.Enabled() {
		inj, err := fault.New(*cfg.Faults, r.Nodes())
		if err != nil {
			return nil, fmt.Errorf("network: %w", err)
		}
		n.inj = inj
	}
	if cfg.Mode != nil {
		ctl, err := mode.New(*cfg.Mode)
		if err != nil {
			return nil, fmt.Errorf("network: %w", err)
		}
		n.modeCtl = ctl
		n.adm.SetModeFunc(ctl.Mode)
	}
	for i := 0; i < r.Nodes(); i++ {
		nd := node.New(r, i)
		if cfg.SecondaryRequests {
			nd.EnableSecondaryIndex()
		}
		n.nodes = append(n.nodes, nd)
	}
	// Built-in accounting subscribes first so Metrics always fills; the
	// caller's observers follow in the order given.
	n.pipe.Attach(&metricsObserver{m: n.metrics, payload: cfg.Params.SlotPayloadBytes})
	for _, o := range cfg.Observers {
		n.pipe.Attach(o)
	}
	n.scheduleNextSlot(0)
	return n, nil
}

// scheduleNextSlot records the start of the next slot, at time at, as the
// network's only pending engine point.
func (n *Network) scheduleNextSlot(at timing.Time) {
	n.pts = n.pts[:1]
	n.pts[0] = enginePoint{when: at, seq: n.sim.ReserveSeq(), op: opStartSlot}
	n.ptNext = 0
}

// Now returns the current simulated time.
func (n *Network) Now() timing.Time { return n.sim.Now() }

// At schedules fn at absolute simulated time t (for traffic generators and
// services).
func (n *Network) At(t timing.Time, fn func(timing.Time)) { n.sim.Post(t, fn) }

// After schedules fn d after the current time.
func (n *Network) After(d timing.Time, fn func(timing.Time)) { n.sim.PostAfter(d, fn) }

// Run advances the simulation to the given absolute time. Every network on
// the same kernel advances with it (all rings of a MultiNet, whichever ring
// is run): their engine points and the kernel's queued events execute in one
// (time, seq) order. The horizon may land anywhere — mid-slot, mid-gap, or
// during a recovery silence — and the next call resumes there.
func (n *Network) Run(until timing.Time) {
	sim := n.sim
	for {
		// A lone network needs no merge (and no call on its hot path).
		cur, bw, bs := n, timing.Time(timing.Forever), uint64(math.MaxUint64)
		if len(n.group) > 1 {
			cur, bw, bs = n.earliest()
		} else if n.ptNext == len(n.pts) {
			cur = nil
		}
		if cur == nil {
			// Every network is silent, awaiting a recovery timeout: only
			// queued events can run, and one may re-arm a network.
			if !sim.StepUpTo(until) {
				sim.AdvanceTo(until)
				return
			}
			continue
		}
		// cur runs its points while they precede the horizon and the other
		// networks' earliest point (bw, bs); lim folds both bounds into the
		// one comparison the common path makes.
		lim := until
		if bw <= lim {
			lim = bw - 1
		}
		for cur.ptNext < len(cur.pts) {
			pt := cur.pts[cur.ptNext]
			if pt.when > lim {
				if pt.when <= until || bw <= until {
					if pt.when > until || pt.when > bw || pt.seq > bs {
						break // another network's point comes first
					}
				} else {
					// No network has a point due by the horizon: run the
					// queued events that are.
					if !sim.StepUpTo(until) {
						sim.AdvanceTo(until)
						return
					}
					if len(n.group) > 1 {
						break
					}
					continue
				}
			}
			if sim.PeekBefore(pt.when, pt.seq) {
				// A queued event comes first (and is due: it is no later
				// than pt). It may re-arm a silent network, which moves the
				// bound: with other networks, choose the earliest point again.
				sim.StepBefore(until, pt.when, pt.seq)
				if len(n.group) > 1 {
					break
				}
				continue
			}
			sim.Enter(pt.when, pt.seq)
			if pt.op == opCollect {
				cur.collect(pt.when, lim)
			} else {
				cur.ptNext++
				switch pt.op {
				case opArbitrate:
					cur.arbitrate(pt.when)
				case opEndSlot:
					cur.endSlot(pt.when)
				default:
					cur.startSlot(pt.when)
				}
			}
			if len(n.group) > 1 {
				// The point may have enqueued on another ring (an observer
				// submitting there), moving that ring's round earlier:
				// choose the earliest point again.
				break
			}
		}
	}
}

// earliest returns the network of n's group whose next engine point comes
// first, and the (time, seq) of the earliest point among the others
// (timing.Forever when there is none). cur is nil when every network is
// silent.
func (n *Network) earliest() (cur *Network, bw timing.Time, bs uint64) {
	var first, second *enginePoint
	for _, g := range n.group {
		if g.ptNext == len(g.pts) {
			continue
		}
		pt := &g.pts[g.ptNext]
		switch {
		case first == nil || pt.before(first):
			first, second, cur = pt, first, g
		case second == nil || pt.before(second):
			second = pt
		}
	}
	if second == nil {
		return cur, timing.Forever, math.MaxUint64
	}
	return cur, second.when, second.seq
}

// RunSlots advances the simulation by approximately count slots (assuming
// worst-case gaps; the engine may fit more slots in the same wall of time).
func (n *Network) RunSlots(count int64) {
	n.Run(n.sim.Now() + timing.Time(count)*n.tt.SlotPeriod)
}

// Params returns the physical parameters.
func (n *Network) Params() timing.Params { return n.params }

// Ring returns the topology.
func (n *Network) Ring() ring.Ring { return n.r }

// Metrics returns the live metrics (read-only use).
func (n *Network) Metrics() *Metrics { return n.metrics }

// Admission returns the admission controller (Section 6).
func (n *Network) Admission() *sched.Admission { return n.adm }

// Slot returns the current slot number.
func (n *Network) Slot() int64 { return n.slot }

// NodeAlive reports whether station i is currently up (not crashed by fault
// injection or a master-failure experiment).
func (n *Network) NodeAlive(i int) bool { return !n.dead.Contains(i) }

// Master returns the node currently holding clocking responsibility.
func (n *Network) Master() int { return n.master }

// QueueDepth returns the total number of messages still queued at all nodes.
func (n *Network) QueueDepth() int {
	total := 0
	for _, nd := range n.nodes {
		total += nd.QueueLen()
	}
	return total
}

// Mode returns the current operating mode (Normal when the mode protocol is
// disabled).
func (n *Network) Mode() mode.Mode {
	if n.modeCtl == nil {
		return mode.Normal
	}
	return n.modeCtl.Mode()
}

// ModeController returns the operating-mode controller, or nil when the
// protocol is disabled.
func (n *Network) ModeController() *mode.Controller { return n.modeCtl }

// modeTick closes one mode window at a slot boundary: it feeds the
// cumulative miss/completion totals and the current backlog to the
// hysteresis controller, and on a transition counts it and emits the typed
// mode event (Node carries the previous mode, Peer the new one). Runs once
// per WindowSlots slots, off the hot path, so the queue-depth scan and the
// event construction are acceptable.
func (n *Network) modeTick(now timing.Time) {
	missed := n.metrics.NetDeadlineMisses.Value()
	done := n.metrics.MessagesDelivered.Value() + n.metrics.LateDrops.Value()
	tr, ok := n.modeCtl.Evaluate(n.slot, missed, done, n.QueueDepth())
	if !ok {
		return
	}
	n.metrics.ModeTransitions.Inc()
	n.metrics.ModeEntries[tr.To].Inc()
	n.pipe.Emit(obs.Event{
		Kind: obs.KindModeNormal + obs.Kind(tr.To),
		Time: now, Slot: n.slot, Node: int(tr.From), Peer: int(tr.To),
	})
}

// OnDeliver registers fn to run whenever a message completes delivery.
func (n *Network) OnDeliver(fn func(*sched.Message, timing.Time)) {
	n.onDeliver = append(n.onDeliver, fn)
}

// SubmitMessage enqueues a message at node src for the given destinations,
// occupying slots network slots, with the given relative network-level
// deadline (ignored — treated as no deadline — for non-real-time traffic).
// slots must lie in [1, sched.MaxMessageSlots]. It returns the queued
// message.
func (n *Network) SubmitMessage(class sched.Class, src int, dests ring.NodeSet, slots int, relDeadline timing.Time) (*sched.Message, error) {
	if !n.r.Valid(src) {
		return nil, fmt.Errorf("network: source %d outside ring", src)
	}
	if dests.Empty() || dests.Contains(src) {
		return nil, fmt.Errorf("network: bad destination set %v for source %d", dests, src)
	}
	// Walk the set bits directly: traffic generators call SubmitMessage per
	// message forever, and materialising the member slice just to validate it
	// would allocate on every submission.
	for v := uint64(dests); v != 0; v &= v - 1 {
		if d := bits.TrailingZeros64(v); !n.r.Valid(d) {
			return nil, fmt.Errorf("network: destination %d outside ring", d)
		}
	}
	if slots < 1 || slots > sched.MaxMessageSlots {
		return nil, fmt.Errorf("network: message of %d slots outside [1,%d]", slots, sched.MaxMessageSlots)
	}
	deadline := timing.Forever
	if class != sched.ClassNonRealTime && relDeadline > 0 && relDeadline != timing.Forever {
		deadline = n.sim.Now() + relDeadline
	}
	n.msgSeq++
	m := &sched.Message{
		ID:       n.msgSeq,
		Class:    class,
		Src:      src,
		Dests:    dests,
		Release:  n.sim.Now(),
		Deadline: deadline,
		Slots:    slots,
	}
	if err := n.nodes[src].Enqueue(m); err != nil {
		return nil, err
	}
	n.markQueued(src)
	return m, nil
}

// OpenConnection admits a logical real-time connection and starts its
// periodic message stream immediately (first release now, then every
// Period). It returns the admitted connection with its assigned ID.
func (n *Network) OpenConnection(c sched.Connection) (sched.Connection, error) {
	admitted, err := n.adm.Request(c)
	if err != nil {
		return sched.Connection{}, err
	}
	n.startConn(admitted)
	return admitted, nil
}

// startConn registers the connection's state and releases its first message.
func (n *Network) startConn(c sched.Connection) {
	cs := &connState{
		stats:  &ConnStats{Conn: c, Latency: stats.NewHistogram(), Jitter: stats.NewHistogram()},
		active: true,
	}
	id := c.ID
	cs.release = func(timing.Time) { n.releaseConnMessage(id) }
	n.conns[id] = cs
	n.releaseConnMessage(id)
}

// StartAdmitted begins the periodic stream of a connection that the
// admission controller has already accepted (used by the remote admission
// service, where reservation happens at the designated node and the stream
// starts when the acceptance reply reaches the source).
func (n *Network) StartAdmitted(c sched.Connection) error {
	stored, ok := n.adm.Get(c.ID)
	if !ok {
		return fmt.Errorf("network: connection %d is not admitted", c.ID)
	}
	if _, exists := n.conns[c.ID]; exists {
		return fmt.Errorf("network: connection %d already started", c.ID)
	}
	n.startConn(stored)
	return nil
}

// ForceConnection starts a periodic stream while bypassing the admission
// test — the hook overload experiments use to offer more than U_max.
// Guarantees do not apply to forced connections.
func (n *Network) ForceConnection(c sched.Connection) (sched.Connection, error) {
	admitted, err := n.adm.Force(c)
	if err != nil {
		return sched.Connection{}, err
	}
	n.startConn(admitted)
	return admitted, nil
}

// CloseConnection stops the connection's stream and frees its capacity.
func (n *Network) CloseConnection(id int) bool {
	cs, ok := n.conns[id]
	if !ok || !cs.active {
		return false
	}
	cs.active = false
	return n.adm.Release(id)
}

// AdmitConnection runs the mixed-criticality admission test (Admission.Admit)
// and, on acceptance, starts the connection's periodic stream after stopping
// and purging every connection the test shed. Purging matters for the hard
// guarantee: the freed capacity is reused immediately, so a shed connection's
// queued but un-granted messages must leave the source queue with it —
// otherwise they would compete for slots the feasibility test no longer
// accounts for. In-flight granted fragments complete normally. Per-level
// admit/evict/reject counters land in Metrics.
func (n *Network) AdmitConnection(c sched.Connection) (sched.Connection, []sched.Connection, error) {
	admitted, shed, err := n.adm.Admit(c)
	if err != nil {
		if c.Crit.Valid() {
			n.metrics.CritRejected[c.Crit].Inc()
		}
		if _, gated := err.(sched.ErrModeGated); gated {
			n.metrics.ModeGated.Inc()
		}
		return sched.Connection{}, nil, err
	}
	for _, v := range shed {
		if cs, ok := n.conns[v.ID]; ok && cs.active {
			cs.active = false
			n.purgeQueued(v)
		}
		n.metrics.CritEvicted[v.Crit].Inc()
	}
	n.metrics.CritAdmitted[admitted.Crit].Inc()
	n.startConn(admitted)
	return admitted, shed, nil
}

// RetireConnection is CloseConnection plus queue hygiene: the departing
// connection's queued, un-granted messages are cancelled at the source so a
// subsequent admission reusing the freed capacity does not race stale
// backlog (see AdmitConnection). Churn departures use this.
func (n *Network) RetireConnection(id int) bool {
	cs, ok := n.conns[id]
	if !ok || !cs.active {
		return false
	}
	cs.active = false
	n.purgeQueued(cs.stats.Conn)
	return n.adm.Release(id)
}

// purgeQueued cancels c's queued, un-granted messages at its source node.
func (n *Network) purgeQueued(c sched.Connection) {
	if c.Src < 0 || c.Src >= len(n.nodes) {
		return
	}
	nd := n.nodes[c.Src]
	var ids []int64
	for _, m := range nd.Queued() {
		if m.Conn == c.ID {
			ids = append(ids, m.ID)
		}
	}
	for _, id := range ids {
		nd.Cancel(id)
	}
}

// ConnStats returns the statistics of a (possibly closed) connection.
func (n *Network) ConnStats(id int) (*ConnStats, bool) {
	cs, ok := n.conns[id]
	if !ok {
		return nil, false
	}
	return cs.stats, true
}

// Connections returns the IDs of every connection ever opened, in ID order.
func (n *Network) Connections() []int {
	ids := make([]int, 0, len(n.conns))
	for id := range n.conns {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ { // insertion sort; the set is small
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

func (n *Network) releaseConnMessage(id int) {
	cs, ok := n.conns[id]
	if !ok || !cs.active {
		return
	}
	c := cs.stats.Conn
	if n.modeCtl != nil && c.Crit == sched.CritBestEffort && n.modeCtl.Mode() >= mode.Critical {
		// Critical mode sheds best-effort traffic at the queue: the release
		// is skipped (never enqueued) but stays scheduled, so the connection
		// resumes transmitting the moment the mode relaxes.
		n.metrics.ModeShedBE.Inc()
		n.sim.PostAfter(c.Period, cs.release)
		return
	}
	n.msgSeq++
	m := &sched.Message{
		ID:       n.msgSeq,
		Conn:     c.ID,
		Class:    c.Crit.Class(),
		Src:      c.Src,
		Dests:    c.Dests,
		Release:  n.sim.Now(),
		Deadline: n.sim.Now() + c.RelDeadline(),
		Slots:    c.Slots,
	}
	if err := n.nodes[c.Src].Enqueue(m); err == nil {
		cs.stats.Released++
		n.markQueued(c.Src)
	}
	n.sim.PostAfter(c.Period, cs.release)
}

// startSlot begins slot n.slot at the current time: grants decided during
// the previous slot are transmitted, and the collection phase for the next
// slot starts on the control channel.
func (n *Network) startSlot(now timing.Time) {
	n.slotStart = now
	if e := n.pipe.Prep(obs.KindSlotStart); e != nil {
		e.Time, e.Slot, e.Node = now, n.slot, n.master
		n.pipe.Dispatch()
	}

	// Execute the grants of the previous arbitration.
	busy := 0
	for _, g := range n.pending.Grants {
		if n.dead.Contains(g.Node) {
			continue
		}
		m := n.nodes[g.Node].Grant(g.MsgID)
		if m == nil {
			n.pipe.Emit(obs.Event{Kind: obs.KindGrantWasted, Time: now, Slot: n.slot, Node: g.Node, Grant: g})
			continue
		}
		busy += g.Links.Count()
		n.transmit(m, g, now)
	}
	if e := n.pipe.Prep(obs.KindSlotData); e != nil {
		e.Time, e.Slot, e.Node = now, n.slot, n.master
		e.Busy, e.Denied = busy, len(n.pending.Denied)
		n.pipe.Dispatch()
	}

	// Collection phase: the control packet leaves the master and passes
	// every node; node (master+i) appends its request after i per-node
	// delays and the propagation over the i links between them. The master
	// holds the completed packet after Equation 2's minimum collection time
	// and arbitrates; the slot ends one payload time after it started. The
	// round, the arbitration and the slot end are recorded as engine points
	// for Run, in (when, seq) order: the last visit is the master's, at
	// MinSlot, and the slot is never shorter than that.
	sec := len(n.sampled) > len(n.nodes)
	for v := uint64(n.live &^ n.queued); v != 0; v &= v - 1 {
		i := bits.TrailingZeros64(v)
		n.sampled[i] = core.Request{Node: i}
		if sec {
			n.sampled[len(n.nodes)+i] = core.Request{Node: i}
		}
	}
	n.live = 0
	n.pts = append(n.pts[:0],
		enginePoint{seq: n.sim.ReserveSeq(), op: opCollect},
		enginePoint{when: now + n.tt.MinSlot, seq: n.sim.ReserveSeq(), op: opArbitrate},
		enginePoint{when: now + n.tt.SlotTime, seq: n.sim.ReserveSeq(), op: opEndSlot})
	n.ptNext = 0
	n.seek(1)
}

// visits returns the stations the open round visits: those whose queue may
// be non-empty and those whose crash is still undetected, or every station
// while an observer wants each sample.
func (n *Network) visits() ring.NodeSet {
	if n.pipe.Wants(obs.KindRequestSampled) {
		return ring.NodeSet(math.MaxUint64 >> (64 - len(n.nodes)))
	}
	return n.queued | n.detectPending
}

// seek aims the open round's point at the first hop from `from` on whose
// station is in visits, or parks it at the last hop (the master's) when
// there is none.
func (n *Network) seek(from int) {
	nodes := len(n.nodes)
	// Rotate the visit set so that bit k is the station k+1 hops after the
	// master; bits at nodes and above are discarded by the range check.
	first := n.master + 1
	if first == nodes {
		first = 0
	}
	s := uint64(n.visits())
	rot := (s>>first | s<<(nodes-first)) >> (from - 1)
	h := from + bits.TrailingZeros64(rot)
	if h > nodes {
		h = nodes
	}
	n.hop = h
	n.pts[n.ptNext].when = n.slotStart + n.tt.CollectOff(n.master, h)
}

// collect runs the open round's point: the station n.hop hops after the
// master is sampled if it is still in visits, and the point moves on to the
// next station to visit; the master's hop ends the round. A lone network
// runs its next visits straight on while they come by lim and before every
// queued event, exactly as Run would; in a group Run chooses the earliest
// point again after each visit.
func (n *Network) collect(now, lim timing.Time) {
	nodes := len(n.nodes)
	for {
		idx := n.master + n.hop
		if idx >= nodes {
			idx -= nodes
		}
		if n.visits().Contains(idx) {
			n.sample(idx, now)
		}
		if n.hop == nodes {
			n.ptNext++
			return
		}
		n.seek(n.hop + 1)
		pt := &n.pts[n.ptNext]
		if pt.when > lim || len(n.group) > 1 || n.sim.PeekBefore(pt.when, pt.seq) {
			return
		}
		now = pt.when
		n.sim.Enter(now, pt.seq)
	}
}

// roundOpen reports whether the collection round is the next engine point.
func (n *Network) roundOpen() bool {
	return n.ptNext < len(n.pts) && n.pts[n.ptNext].op == opCollect
}

// markQueued records that station idx's queue may be non-empty. During an
// open round the station is visited if its visit is still ahead of the
// kernel — exactly when a point of its own would have sampled the enqueue.
func (n *Network) markQueued(idx int) {
	if n.queued.Contains(idx) {
		return
	}
	n.queued = n.queued.Add(idx)
	if !n.roundOpen() {
		return
	}
	h := idx - n.master
	if h <= 0 {
		h += len(n.nodes)
	}
	if h >= n.hop {
		return // the round reaches it anyway
	}
	pt := &n.pts[n.ptNext]
	if at := n.slotStart + n.tt.CollectOff(n.master, h); n.sim.Ahead(at, pt.seq) {
		n.hop = h
		pt.when = at
	}
}

// rewind re-aims an open round at the first hop whose visit is still ahead
// of the kernel, for when the visit set has grown to every station (an
// observer attached mid-round wants each sample).
func (n *Network) rewind() {
	if !n.roundOpen() {
		return
	}
	seq := n.pts[n.ptNext].seq
	h := 1
	for h < n.hop && !n.sim.Ahead(n.slotStart+n.tt.CollectOff(n.master, h), seq) {
		h++
	}
	n.seek(h)
}

// transmit delivers (or loses) one granted fragment.
func (n *Network) transmit(m *sched.Message, g core.Grant, slotBegin timing.Time) {
	span := n.r.Span(g.Node, g.Dests)
	arrival := slotBegin + n.tt.SlotTime + n.tt.Prop(g.Node, g.Node+span)
	if e := n.pipe.Prep(obs.KindFragmentSent); e != nil {
		e.Time, e.Slot = slotBegin, n.slot
		e.Node, e.Peer = g.Node, g.Dests.First()
		e.Msg, e.Grant = m, g
		n.pipe.Dispatch()
	}
	lost := n.cfg.LossProb > 0 && n.rnd.Bool(n.cfg.LossProb)
	corrupted := !lost && n.cfg.CorruptProb > 0 && n.rnd.Bool(n.cfg.CorruptProb)
	if lost || corrupted {
		n.pipe.Emit(obs.Event{
			Kind: obs.KindFragmentLost, Corrupted: corrupted, Time: n.sim.Now(), Slot: n.slot,
			Node: g.Node, Peer: g.Dests.First(), Msg: m, Grant: g,
		})
		if n.cfg.Reliable {
			// The sender notices the missing acknowledgement in the
			// distribution packet of the slot after the arrival slot and
			// requeues the fragment. (A closure per loss is fine: losses are
			// injected faults, not the steady-state path.)
			n.sim.Post(arrival+n.tt.SlotTime, func(t timing.Time) {
				n.pipe.Emit(obs.Event{
					Kind: obs.KindRetransmit, Time: t, Slot: n.slot, Node: m.Src, Msg: m, Grant: g,
				})
				n.nodes[m.Src].Restore(m)
				n.markQueued(m.Src)
			})
		} else {
			m.Dropped++
			if m.Dropped+m.Delivered >= m.Slots {
				n.pipe.Emit(obs.Event{
					Kind: obs.KindMessageLost, Time: n.sim.Now(), Slot: n.slot, Node: m.Src, Msg: m,
				})
			}
		}
		return
	}
	n.sim.Post(arrival, n.newDelivery(m, g).fn)
}

// deliver completes one fragment and, when it is the last, the message.
func (n *Network) deliver(m *sched.Message, g core.Grant, now timing.Time) {
	m.Delivered++
	if e := n.pipe.Prep(obs.KindFragmentDelivered); e != nil {
		e.Time, e.Slot = now, n.slot
		e.Node, e.Peer = g.Node, g.Dests.First()
		e.Msg, e.Grant = m, g
		n.pipe.Dispatch()
	}
	if m.Delivered < m.Slots {
		if m.Dropped > 0 && m.Dropped+m.Delivered >= m.Slots {
			// The last outstanding fragment was lost while this one was in
			// flight: the message can never complete.
			n.pipe.Emit(obs.Event{
				Kind: obs.KindMessageLost, Time: now, Slot: n.slot, Node: m.Src, Msg: m,
			})
		}
		return
	}
	latency := now - m.Release
	n.pipe.Emit(obs.Event{
		Kind: obs.KindMessageComplete, Time: now, Slot: n.slot, Node: m.Src, Msg: m, Latency: latency,
	})
	if m.Class == sched.ClassRealTime && m.Deadline != timing.Forever {
		if now > m.Deadline {
			n.pipe.Emit(obs.Event{
				Kind: obs.KindDeadlineMiss, Time: now, Slot: n.slot, Node: m.Src, Msg: m,
			})
		}
		if now > m.Deadline+n.tt.WorstLatency {
			n.pipe.Emit(obs.Event{
				Kind: obs.KindDeadlineMiss, User: true, Time: now, Slot: n.slot, Node: m.Src, Msg: m,
			})
		}
	}
	// Conn == 0 is the "connectionless" sentinel, never a map key: check it
	// before indexing so a stray zero entry in conns can't absorb stats.
	if m.Conn != 0 {
		if cs, ok := n.conns[m.Conn]; ok {
			cs.stats.Delivered++
			cs.stats.Latency.Observe(latency)
			if cs.stats.lastDelivery > 0 {
				gap := now - cs.stats.lastDelivery
				wobble := gap - cs.stats.Conn.Period
				if wobble < 0 {
					wobble = -wobble
				}
				cs.stats.Jitter.Observe(wobble)
			}
			cs.stats.lastDelivery = now
			if now > m.Deadline {
				cs.stats.NetMisses++
				n.metrics.CritMisses[cs.stats.Conn.Crit].Inc()
			}
			if now > m.Deadline+n.tt.WorstLatency {
				cs.stats.UserMisses++
			}
		}
	}
	for _, fn := range n.onDeliver {
		fn(m, now)
	}
}

// sample snapshots one node's request (and secondary) into the slate as the
// collection packet passes it.
func (n *Network) sample(idx int, now timing.Time) {
	sec := len(n.sampled) > len(n.nodes)
	if n.dead.Contains(idx) {
		// A dead station's entries are empty whatever its queue holds (the
		// restart expires it), so later rounds need not visit it.
		n.queued = n.queued.Remove(idx)
		n.sampled[idx] = core.Request{Node: idx}
		if sec {
			n.sampled[len(n.nodes)+idx] = core.Request{Node: idx}
		}
		if n.detectPending.Contains(idx) {
			// The collection packet passing a silent station is how the
			// ring notices a crash: the node's request field stays empty
			// and its downstream neighbour re-clocks the control channel.
			n.detectPending = n.detectPending.Remove(idx)
			n.pipe.Emit(obs.Event{Kind: obs.KindFaultDetected, Fault: fault.NodeCrash, Time: now, Slot: n.slot, Node: idx})
		}
		return
	}
	nd := n.nodes[idx]
	dropped := nd.Request(&n.sampled[idx], now, n.tt.SlotTime, n.cfg.DropLate)
	if sec {
		nd.SecondaryRequest(&n.sampled[len(n.nodes)+idx], now, n.tt.SlotTime)
	}
	if nd.QueueLen() == 0 {
		n.queued = n.queued.Remove(idx)
	} else {
		n.live = n.live.Add(idx)
	}
	if n.pipe.Wants(obs.KindRequestSampled) {
		n.pipe.Emit(obs.Event{Kind: obs.KindRequestSampled, Time: now, Slot: n.slot, Node: idx, Req: n.sampled[idx]})
	}
	for _, m := range dropped {
		n.pipe.Emit(obs.Event{Kind: obs.KindLateDrop, Time: now, Slot: n.slot, Node: idx, Msg: m})
		n.pipe.Emit(obs.Event{Kind: obs.KindDeadlineMiss, Time: now, Slot: n.slot, Node: idx, Msg: m})
		n.pipe.Emit(obs.Event{Kind: obs.KindDeadlineMiss, User: true, Time: now, Slot: n.slot, Node: idx, Msg: m})
		if m.Conn != 0 { // sentinel check first; see deliver
			if cs, ok := n.conns[m.Conn]; ok {
				cs.stats.NetMisses++
				cs.stats.UserMisses++
				n.metrics.CritMisses[cs.stats.Conn.Crit].Inc()
			}
		}
	}
}

// arbitrate runs the protocol on the completed collection packet.
func (n *Network) arbitrate(now timing.Time) {
	if n.inj != nil && n.inj.DropCollection() {
		// A control-channel bit error ate the collection packet: the master
		// has no request slate to arbitrate, so it keeps the clock itself
		// and grants nothing — queued messages are simply re-requested next
		// round (sampling only peeks at the queues). No arbitration event is
		// emitted: on the wire, the round never happened. The filled slate
		// is abandoned in place; next slot's round refreshes it, and the
		// slate exposed by the previous arbitration event (in the
		// spare buffer) stays intact as the observer contract requires.
		n.pipe.Emit(obs.Event{Kind: obs.KindFaultInjected, Fault: fault.CollectionDrop, Time: now, Slot: n.slot, Node: n.master})
		n.pipe.Emit(obs.Event{Kind: obs.KindFaultDetected, Fault: fault.CollectionDrop, Time: now, Slot: n.slot, Node: n.master})
		n.next = core.Outcome{Master: n.master}
		n.collDropped = true
		return
	}
	// Indices 0..N−1 of the slate keep the per-node layout the baseline
	// protocols use; the extension's secondaries follow.
	reqs := n.sampled
	n.next = n.proto.Arbitrate(reqs, n.master)
	// One event carries the whole round: the sampled requests and the full
	// outcome. The codec verifiers, the invariant checker and the tracer
	// all subscribe to it. Requests aliases network-owned scratch that stays
	// intact only until the next arbitration — observers retaining it must
	// copy (DESIGN.md §9).
	if n.pipe.Wants(obs.KindArbitration) {
		n.pipe.Emit(obs.Event{
			Kind: obs.KindArbitration, Time: now, Slot: n.slot,
			Node: n.master, Peer: n.next.Master, Outcome: &n.next, Requests: reqs,
		})
	}
	// Swap in the spare slate for the next collection round, which empties
	// or overwrites every non-empty entry before it arbitrates. The slate
	// just emitted stays untouched until the round after.
	n.sampled, n.sampledSpare = n.sampledSpare, n.sampled
	n.live, n.liveSpare = n.liveSpare, n.live
}

// endSlot stops the clock, hands the master role over and schedules the next
// slot after the hand-over gap (Equation 1). It is also the fault boundary:
// scheduled crashes and restarts take effect here, a lost distribution packet
// keeps the clock with the incumbent, and a failed handover leaves the ring
// silent until the incumbent re-takes it. All fault branches may allocate —
// they are off the steady-state path (DESIGN.md §9).
func (n *Network) endSlot(now timing.Time) {
	if n.modeCtl != nil && n.modeCtl.EndSlot() {
		n.modeTick(now)
	}
	if n.collDropped {
		// The collection drop injected during this slot has run its course:
		// the incumbent kept the clock and the round retries next slot.
		n.collDropped = false
		n.pipe.Emit(obs.Event{Kind: obs.KindFaultRecovered, Fault: fault.CollectionDrop, Time: now, Slot: n.slot, Node: n.master})
	}
	if n.inj != nil {
		for {
			c, ok := n.inj.NextRestart(n.slot)
			if !ok {
				break
			}
			n.restartNode(c.Node, now)
		}
		for {
			c, ok := n.inj.NextCrash(n.slot)
			if !ok {
				break
			}
			n.crashNode(c.Node, now)
		}
	}
	newMaster := n.next.Master
	if (n.cfg.FailMasterAt > 0 && n.slot == n.cfg.FailMasterAt) || n.dead.Contains(newMaster) {
		// The elected master is dead before it starts clocking — either the
		// legacy single-shot FailMasterAt failure or a scheduled crash. The
		// network goes silent until the designated node's timeout fires
		// (§8); the designated node skips dead stations.
		n.dead = n.dead.Add(newMaster)
		n.pipe.Emit(obs.Event{Kind: obs.KindMasterLoss, Time: now, Slot: n.slot, Node: newMaster})
		timeout := timing.Time(n.cfg.RecoveryTimeoutSlots) * n.tt.SlotTime
		n.sim.Post(now+timeout, func(t timing.Time) {
			n.master = n.cfg.DesignatedNode
			for i := 0; n.dead.Contains(n.master) && i < n.r.Nodes(); i++ {
				n.master = n.r.Next(n.master)
			}
			n.pending = core.Outcome{Master: n.master}
			n.next = n.pending
			n.pipe.Emit(obs.Event{Kind: obs.KindRecovery, Time: t, Slot: n.slot, Node: n.master, Gap: timeout})
			n.slot++
			n.startSlot(t)
		})
		return
	}
	if n.inj != nil && n.inj.DropDistribution() {
		// The distribution packet is lost to a control-channel bit error: no
		// node learns the arbitration outcome, so no grants execute and the
		// elected master never takes over. The incumbent — which sees its
		// own packet come back corrupt as the ring loops it around — keeps
		// the clock with an empty outcome; the denied and granted messages
		// stay queued and are re-requested next round.
		n.pipe.Emit(obs.Event{Kind: obs.KindFaultInjected, Fault: fault.DistributionDrop, Time: now, Slot: n.slot, Node: n.master})
		n.pipe.Emit(obs.Event{Kind: obs.KindFaultDetected, Fault: fault.DistributionDrop, Time: now, Slot: n.slot, Node: n.master})
		n.pipe.Emit(obs.Event{
			Kind: obs.KindHandover, Time: now, Slot: n.slot,
			Node: n.master, Peer: n.master, Hops: 0, Gap: 0,
		})
		n.pipe.Emit(obs.Event{Kind: obs.KindFaultRecovered, Fault: fault.DistributionDrop, Time: now, Slot: n.slot, Node: n.master})
		n.pending = core.Outcome{Master: n.master}
		n.next = n.pending
		n.slot++
		n.scheduleNextSlot(now)
		return
	}
	dist := n.r.Dist(n.master, newMaster)
	gap := n.tt.Prop(n.master, newMaster)
	if e := n.pipe.Prep(obs.KindHandover); e != nil {
		e.Time, e.Slot = now, n.slot
		e.Node, e.Peer = n.master, newMaster
		e.Hops, e.Gap = dist, gap
		n.pipe.Dispatch()
	}
	if n.inj != nil && newMaster != n.master && n.inj.FailHandover() {
		// The handover token is lost in the inter-slot gap: the elected
		// master never starts clocking. Equation 1's gap still elapses (the
		// KindHandover above keeps the accounting honest); the incumbent
		// detects the silence after one further slot time — the forfeited
		// slot — and re-takes the clock with an empty outcome.
		n.pipe.Emit(obs.Event{Kind: obs.KindFaultInjected, Fault: fault.HandoverFail, Time: now, Slot: n.slot, Node: newMaster})
		silence := gap + n.tt.SlotTime
		n.sim.Post(now+silence, func(t timing.Time) {
			n.pipe.Emit(obs.Event{Kind: obs.KindFaultDetected, Fault: fault.HandoverFail, Time: t, Slot: n.slot, Node: n.master, Gap: silence})
			n.pending = core.Outcome{Master: n.master}
			n.next = n.pending
			n.pipe.Emit(obs.Event{Kind: obs.KindFaultRecovered, Fault: fault.HandoverFail, Time: t, Slot: n.slot, Node: n.master})
			n.slot++
			n.startSlot(t)
		})
		return
	}
	n.master = newMaster
	n.pending = n.next
	n.slot++
	n.scheduleNextSlot(now + gap)
}

// crashNode kills one station at the current slot boundary: its queue
// expires, its request field goes silent (the next collection round detects
// that), and — if it was about to take the clock — the master-loss recovery
// re-forms the ring around it.
func (n *Network) crashNode(idx int, now timing.Time) {
	if n.dead.Contains(idx) {
		return
	}
	n.dead = n.dead.Add(idx)
	n.detectPending = n.detectPending.Add(idx)
	n.pipe.Emit(obs.Event{Kind: obs.KindFaultInjected, Fault: fault.NodeCrash, Time: now, Slot: n.slot, Node: idx})
	n.expireQueue(idx, now)
}

// restartNode brings a crashed station back. Everything that accumulated in
// its queue while it was dark expires with the crash — a rebooted station
// holds no state — and the node rejoins the collection round from the next
// slot on.
func (n *Network) restartNode(idx int, now timing.Time) {
	if !n.dead.Contains(idx) {
		return
	}
	if n.detectPending.Contains(idx) {
		// No collection round ran between crash and restart (recovery
		// silence): account the detection here so every injected crash has
		// its matching detection event.
		n.detectPending = n.detectPending.Remove(idx)
		n.pipe.Emit(obs.Event{Kind: obs.KindFaultDetected, Fault: fault.NodeCrash, Time: now, Slot: n.slot, Node: idx})
	}
	n.expireQueue(idx, now)
	n.dead = n.dead.Remove(idx)
	n.pipe.Emit(obs.Event{Kind: obs.KindFaultRecovered, Fault: fault.NodeCrash, Time: now, Slot: n.slot, Node: idx})
}

// expireQueue drains a dead station's queue, emitting one KindMessageLost per
// expired message in service order.
func (n *Network) expireQueue(idx int, now timing.Time) {
	for _, m := range n.nodes[idx].Drain() {
		n.pipe.Emit(obs.Event{Kind: obs.KindMessageLost, Time: now, Slot: n.slot, Node: idx, Msg: m})
	}
}
