package network_test

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"ccredf/internal/ccfpr"
	"ccredf/internal/churn"
	"ccredf/internal/core"
	"ccredf/internal/fault"
	"ccredf/internal/network"
	"ccredf/internal/obs"
	"ccredf/internal/ring"
	"ccredf/internal/rng"
	"ccredf/internal/sched"
	"ccredf/internal/tdma"
	"ccredf/internal/timing"
	"ccredf/internal/topology"
)

// fullVisit wants KindRequestSampled, which makes every collection round
// visit every station, and checks the schedule those samples keep: each
// round samples every live station once (a crashed one is silent), in ring
// order from the master, at its collection offset from the slot start.
type fullVisit struct {
	tab       *timing.Table
	nodes     int
	dead      ring.NodeSet
	slotStart timing.Time
	master    int
	hop       int // hops of the current round already passed
	errs      []string
}

func (f *fullVisit) OnEvent(e *obs.Event) {
	switch e.Kind {
	case obs.KindSlotStart:
		f.slotStart, f.master, f.hop = e.Time, e.Node, 0
	case obs.KindRequestSampled:
		f.skipDead()
		f.hop++
		want := (f.master + f.hop) % f.nodes
		if f.hop > f.nodes {
			f.fail("slot %d: sample %d of station %d in a round of %d", e.Slot, f.hop, e.Node, f.nodes)
		} else if at := f.slotStart + f.tab.CollectOff(f.master, f.hop); e.Node != want || e.Time != at {
			f.fail("slot %d: sample %d of station %d at %v, want station %d at %v",
				e.Slot, f.hop, e.Node, e.Time, want, at)
		}
	case obs.KindArbitration:
		if f.skipDead(); f.hop != f.nodes {
			f.fail("slot %d arbitrates after %d of %d hops", e.Slot, f.hop, f.nodes)
		}
	case obs.KindFaultInjected, obs.KindMasterLoss:
		if e.Kind == obs.KindMasterLoss || e.Fault == fault.NodeCrash {
			f.dead = f.dead.Add(e.Node)
		}
	case obs.KindFaultRecovered:
		if e.Fault == fault.NodeCrash {
			f.dead = f.dead.Remove(e.Node)
		}
	}
}

// skipDead passes the crashed stations next in the round, which are not
// sampled.
func (f *fullVisit) skipDead() {
	for f.hop < f.nodes && f.dead.Contains((f.master+f.hop+1)%f.nodes) {
		f.hop++
	}
}

func (f *fullVisit) fail(format string, args ...any) {
	if len(f.errs) < 4 {
		f.errs = append(f.errs, fmt.Sprintf(format, args...))
	}
}

func (f *fullVisit) Kinds() obs.KindSet {
	return obs.KindsOf(obs.KindRequestSampled, obs.KindSlotStart, obs.KindArbitration,
		obs.KindFaultInjected, obs.KindFaultRecovered, obs.KindMasterLoss)
}

// roundLog records every slate and outcome an arbitration observer sees, and
// the start time and master of the latest slot. With secondary set it counts
// the non-empty secondary requests, the upper half of each slate.
type roundLog struct {
	rounds      []string
	slotStart   timing.Time
	master      int
	secondary   bool
	secondaries int64
}

func (l *roundLog) OnEvent(e *obs.Event) {
	switch e.Kind {
	case obs.KindSlotStart:
		l.slotStart, l.master = e.Time, e.Node
	case obs.KindArbitration:
		l.rounds = append(l.rounds, fmt.Sprintf("slot %d @%d master %d: %v -> %+v",
			e.Slot, e.Time, e.Node, e.Requests, *e.Outcome))
		if l.secondary {
			for _, req := range e.Requests[len(e.Requests)/2:] {
				if req.MsgID != 0 {
					l.secondaries++
				}
			}
		}
	}
}

func (l *roundLog) Kinds() obs.KindSet {
	return obs.KindsOf(obs.KindArbitration, obs.KindSlotStart)
}

// crossSubmitter submits, from inside ring 0's slot start, arbitration and
// slot end points, messages at random stations of another ring of the fabric: each
// can move that ring's open collection round earlier than the point the
// group's run loop had chosen next.
type crossSubmitter struct {
	t   *testing.T
	to  *network.Network
	rnd *rng.Source
}

func (s *crossSubmitter) OnEvent(e *obs.Event) {
	// The pipeline hands every observer every built event, so a forced run
	// also shows this one ring 0's samples: skip them to draw alike.
	if !s.Kinds().Contains(e.Kind) || !s.rnd.Bool(0.5) {
		return
	}
	p := s.to.Params()
	src := s.rnd.Intn(p.Nodes)
	if _, err := s.to.SubmitMessage(sched.ClassRealTime, src, ring.Node((src+1+s.rnd.Intn(p.Nodes-1))%p.Nodes),
		1, timing.Time(2+s.rnd.Intn(6))*p.SlotTime()); err != nil {
		s.t.Errorf("cross submit: %v", err)
	}
}

func (s *crossSubmitter) Kinds() obs.KindSet {
	return obs.KindsOf(obs.KindSlotStart, obs.KindArbitration, obs.KindHandover)
}

// skipCase is one randomized scenario of the differential test.
type skipCase struct {
	seed                        uint64
	nodes                       int
	proto                       string
	saturated, secondary, multi bool
	dropLate, reliable, crashes bool
	churn                       bool
}

func (c skipCase) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "s%d/%s/N%d", c.seed, c.proto, c.nodes)
	for _, f := range []struct {
		on   bool
		name string
	}{
		{c.saturated, "saturated"}, {c.secondary, "secondary"}, {c.multi, "2-ring"},
		{c.dropLate, "droplate"}, {c.reliable, "reliable"}, {c.crashes, "crashes"}, {c.churn, "churn"},
	} {
		if f.on {
			b.WriteString("/" + f.name)
		}
	}
	return b.String()
}

// skipCases draws the scenarios: each feature is on in some cases and off
// in others, whatever the draw.
func skipCases(count int) []skipCase {
	src := rng.New(2024)
	protos := []string{"ccr-edf", "cc-fpr", "tdma"}
	var out []skipCase
	for i := 0; i < count; i++ {
		c := skipCase{
			seed:      uint64(100 + i),
			nodes:     []int{5, 8, 13, 16}[src.Intn(4)],
			proto:     protos[i%3],
			saturated: i%2 == 1,
			multi:     i%5 == 4,
			reliable:  i%3 == 1 || src.Bool(0.2),
			crashes:   i%3 == 2 || src.Bool(0.2),
			dropLate:  src.Bool(0.5),
			churn:     i%4 == 0,
		}
		c.secondary = c.proto == "ccr-edf" && (i%6 == 0 || src.Bool(0.3))
		out = append(out, c)
	}
	return out
}

// skipRig is one built scenario: its rings (one, or both of a bridged
// fabric), a round log per ring, and the means to run it.
type skipRig struct {
	nets   []*network.Network
	multi  *network.MultiNet
	logs   []*roundLog
	visits []*fullVisit // forced runs only
	churn  *churn.Stats
	rnd    *rng.Source // workload randomness, private to the rig
}

func (r *skipRig) run(until timing.Time) {
	if r.multi != nil {
		r.multi.Run(until)
		return
	}
	r.nets[0].Run(until)
}

func buildSkipRig(t *testing.T, c skipCase, forced bool) *skipRig {
	t.Helper()
	r := &skipRig{rnd: rng.New(c.seed)}
	configs := []network.Config{r.ringConfig(t, c, c.nodes, 0)}
	if c.multi {
		configs = append(configs, r.ringConfig(t, c, 6, 1))
		topo, err := topology.New(topology.Spec{
			Rings:   []int{c.nodes, 6},
			Bridges: []topology.Bridge{{RingA: 0, NodeA: 1, RingB: 1, NodeB: 0}},
		})
		if err != nil {
			t.Fatal(err)
		}
		r.multi, err = network.NewMulti(network.MultiConfig{Topo: topo, RingConfigs: configs})
		if err != nil {
			t.Fatal(err)
		}
		for i := range configs {
			r.nets = append(r.nets, r.multi.Ring(i))
		}
	} else {
		net, err := network.New(configs[0])
		if err != nil {
			t.Fatal(err)
		}
		r.nets = append(r.nets, net)
	}
	for _, net := range r.nets {
		log := &roundLog{secondary: c.secondary}
		net.Attach(log)
		if forced {
			f := &fullVisit{tab: timing.NewTable(net.Params()), nodes: net.Params().Nodes}
			net.Attach(f)
			r.visits = append(r.visits, f)
		}
		r.logs = append(r.logs, log)
	}
	for _, net := range r.nets {
		r.workload(t, c, net)
	}
	if c.multi {
		slot := r.nets[0].Params().SlotTime()
		if _, err := r.multi.OpenCross(network.CrossRequest{
			SrcRing: 0, Src: 2, DstRing: 1, Dests: ring.Node(3),
			Period: 23 * slot, Slots: 1, Deadline: 22 * slot,
		}); err != nil {
			t.Fatal(err)
		}
		r.nets[0].Attach(&crossSubmitter{t: t, to: r.nets[1], rnd: r.rnd})
	}
	if c.churn {
		var err error
		r.churn, err = churn.Attach(r.nets[0], churn.Spec{RatePerSec: 40000, MeanHoldUs: 3000, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func (r *skipRig) ringConfig(t *testing.T, c skipCase, nodes, ri int) network.Config {
	t.Helper()
	var proto core.Protocol
	var err error
	switch c.proto {
	case "cc-fpr":
		proto, err = ccfpr.NewArbiter(nodes, true)
	case "tdma":
		proto, err = tdma.NewArbiter(nodes, true)
	default:
		proto, err = core.NewArbiter(nodes, sched.Map5Bit, true)
	}
	if err != nil {
		t.Fatal(err)
	}
	cfg := network.Config{
		Params: timing.DefaultParams(nodes), Protocol: proto, Seed: c.seed + uint64(ri),
		DropLate: c.dropLate, SecondaryRequests: c.secondary,
	}
	if c.reliable {
		cfg.Reliable, cfg.LossProb = true, 0.05
	}
	if c.crashes {
		victim := 1 + r.rnd.Intn(nodes-1)
		cfg.Faults = &fault.Plan{
			Seed:               c.seed,
			CollectionDropProb: 0.01,
			Crashes: []fault.Crash{
				{Node: victim, At: 150, Restart: 260},
				{Node: (victim + 2) % nodes, At: 420},
			},
		}
	}
	return cfg
}

// workload starts a ring's traffic: periodic connections from the upper
// half of the ring (stations no generator feeds, so only the connection
// release marks them queued) and submitters of mixed classes from the lower
// half, on gaps unrelated to the slot so they land inside collection rounds.
func (r *skipRig) workload(t *testing.T, c skipCase, net *network.Network) {
	t.Helper()
	n := net.Params().Nodes
	slot := net.Params().SlotTime()
	for i := 0; i < 3; i++ {
		src := n/2 + r.rnd.Intn(n-n/2)
		if _, err := net.ForceConnection(sched.Connection{
			Src: src, Dests: ring.Node((src + 1 + r.rnd.Intn(n-1)) % n),
			Period: timing.Time(7+r.rnd.Intn(30))*slot + timing.Time(r.rnd.Intn(int(slot))),
			Slots:  1 + r.rnd.Intn(2),
		}); err != nil {
			t.Fatal(err)
		}
	}
	gens, mean := 2, 6*float64(slot)
	if c.saturated {
		gens, mean = n/2, 0.7*float64(slot)
	}
	for g := 0; g < gens; g++ {
		src := g % (n / 2)
		var submit func(timing.Time)
		submit = func(timing.Time) {
			class := []sched.Class{sched.ClassRealTime, sched.ClassBestEffort, sched.ClassNonRealTime}[r.rnd.Intn(3)]
			dests := ring.Node((src + 1 + r.rnd.Intn(n-1)) % n)
			if r.rnd.Bool(0.2) {
				dests = dests.Add((src + 1 + r.rnd.Intn(n-1)) % n)
			}
			deadline := timing.Time(1+r.rnd.Intn(12)) * slot
			if _, err := net.SubmitMessage(class, src, dests, 1+r.rnd.Intn(3), deadline); err != nil {
				t.Errorf("submit: %v", err)
			}
			net.After(timing.Time(r.rnd.Exp(mean))+1, submit)
		}
		net.After(timing.Time(r.rnd.Exp(mean))+1, submit)
	}
}

// drive runs the rig to horizon. A chunked drive stops at horizons placed
// on, just before and just after the visit times of ring 0's collection
// rounds, and submits messages between chunks; it returns how many
// horizons fell strictly inside a round.
func (r *skipRig) drive(t *testing.T, horizon timing.Time, chunked bool) int {
	t.Helper()
	if !chunked {
		r.run(horizon)
		return 0
	}
	net := r.nets[0]
	p := net.Params()
	tab := timing.NewTable(p)
	slot := p.SlotTime()
	log := r.logs[0]
	inside := 0
	for now := net.Now(); now < horizon; now = net.Now() {
		k := 1 + r.rnd.Intn(p.Nodes)
		at := log.slotStart + tab.CollectOff(log.master, k) + timing.Time(r.rnd.Intn(3)-1)
		if at <= now {
			at = now + 1 + timing.Time(r.rnd.Int63n(int64(slot)))
		}
		if at > horizon {
			at = horizon
		}
		r.run(at)
		if start := log.slotStart; at > start && at < start+tab.MinSlot {
			inside++
		}
		for j := r.rnd.Intn(3); j > 0; j-- {
			ri := r.rnd.Intn(len(r.nets))
			rn := r.nets[ri]
			n := rn.Params().Nodes
			src := r.rnd.Intn(n)
			deadline := timing.Time(1+r.rnd.Intn(6)) * slot
			if _, err := rn.SubmitMessage(sched.ClassRealTime, src, ring.Node((src+1+r.rnd.Intn(n-1))%n), 1, deadline); err != nil {
				t.Fatal(err)
			}
		}
	}
	return inside
}

// outputs renders everything the comparison checks: per ring, the Snapshot
// JSON, every connection's statistics and every arbitration round; the
// cross-ring and churn statistics.
func (r *skipRig) outputs(t *testing.T) []string {
	t.Helper()
	var out []string
	for ri, net := range r.nets {
		js, err := json.Marshal(net.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("ring %d snapshot %s", ri, js))
		for _, id := range net.Connections() {
			cs, _ := net.ConnStats(id)
			out = append(out, fmt.Sprintf("ring %d conn %d: rel %d del %d miss %d/%d lat %s jit %s", ri, id,
				cs.Released, cs.Delivered, cs.NetMisses, cs.UserMisses, cs.Latency.Summary(), cs.Jitter.Summary()))
		}
		for i, round := range r.logs[ri].rounds {
			out = append(out, fmt.Sprintf("ring %d round %d: %s", ri, i, round))
		}
	}
	if r.multi != nil {
		for _, cc := range r.multi.CrossConns() {
			st := cc.Stats()
			out = append(out, fmt.Sprintf("cross %d: %+v %s", cc.ID,
				[5]int64{st.Released, st.Delivered, st.Expired, st.Misses, st.Dropped}, st.Latency.Summary()))
		}
	}
	if r.churn != nil {
		out = append(out, fmt.Sprintf("churn %+v", *r.churn))
	}
	return out
}

// TestCollectionSkipMatchesFullVisit is the differential test of the
// collection round's skip path: a round visits only the stations whose
// queues may be non-empty, and must produce exactly what visiting every
// station produces — the full visit is forced by an observer that wants
// KindRequestSampled, and that run checks the samples keep the schedule of
// one point per station. Each randomized scenario runs bare and forced, once
// continuously and once in chunks whose horizons land inside collection
// rounds with messages submitted between the chunks; the Snapshot JSON,
// the per-connection, cross-ring and churn statistics and every slate an
// arbitration observer sees must agree.
func TestCollectionSkipMatchesFullVisit(t *testing.T) {
	count := 24
	if testing.Short() {
		count = 8
	}
	inside := 0
	// exercised counts, over the bare runs, the activity each feature must
	// show for the comparison to cover it.
	exercised := map[string]int64{}
	for _, c := range skipCases(count) {
		for _, chunked := range []bool{false, true} {
			name := c.String()
			if chunked {
				name += "/chunked"
			}
			t.Run(name, func(t *testing.T) {
				var runs [2][]string
				for i, forced := range []bool{false, true} {
					r := buildSkipRig(t, c, forced)
					p := r.nets[0].Params()
					inside += r.drive(t, 600*(p.SlotTime()+p.MaxHandoverTime()), chunked)
					runs[i] = r.outputs(t)
					for ri, f := range r.visits {
						for _, e := range f.errs {
							t.Errorf("ring %d: %s", ri, e)
						}
					}
					if !forced {
						r.tally(exercised)
					}
				}
				bare, full := runs[0], runs[1]
				if len(bare) != len(full) {
					t.Errorf("bare run renders %d lines, full-visit run %d", len(bare), len(full))
				}
				for i := 0; i < len(bare) && i < len(full); i++ {
					if bare[i] != full[i] {
						t.Fatalf("first difference at line %d:\n bare: %s\n full: %s", i, bare[i], full[i])
					}
				}
			})
		}
	}
	if inside < 50 {
		t.Fatalf("only %d chunk horizons landed inside a collection round", inside)
	}
	t.Logf("bare-run activity %v; %d chunk horizons inside a round", exercised, inside)
	for _, k := range []string{"late drops", "retransmits", "crashes", "secondary requests",
		"cross deliveries", "churn arrivals", "idle slots"} {
		if exercised[k] == 0 {
			t.Errorf("no %s in any scenario", k)
		}
	}
}

// tally adds the rig's feature activity to counts.
func (r *skipRig) tally(counts map[string]int64) {
	for _, net := range r.nets {
		m := net.Metrics()
		counts["late drops"] += m.LateDrops.Value()
		counts["retransmits"] += m.Retransmits.Value()
		counts["crashes"] += m.NodeCrashes.Value()
		counts["idle slots"] += m.Slots.Value() - m.SlotsWithData.Value()
	}
	for _, l := range r.logs {
		counts["secondary requests"] += l.secondaries
	}
	if r.multi != nil {
		for _, cc := range r.multi.CrossConns() {
			counts["cross deliveries"] += cc.Stats().Delivered
		}
	}
	if r.churn != nil {
		counts["churn arrivals"] += r.churn.Arrivals
	}
}

// sampleLog records every KindRequestSampled event and its time.
type sampleLog struct {
	samples []string
	at      []timing.Time
}

func (l *sampleLog) OnEvent(e *obs.Event) {
	l.samples = append(l.samples, fmt.Sprintf("slot %d @%d node %d: %+v", e.Slot, e.Time, e.Node, e.Req))
	l.at = append(l.at, e.Time)
}

func (l *sampleLog) Kinds() obs.KindSet { return obs.KindsOf(obs.KindRequestSampled) }

// TestSampledObserverAttachedMidRound pins Attach's re-aiming of an open
// round: an observer that starts wanting KindRequestSampled part-way through
// a run must see, from then on, exactly the samples it would have seen had
// it been attached from the start — including those of idle stations whose
// visits in the open round are still ahead.
func TestSampledObserverAttachedMidRound(t *testing.T) {
	c := skipCase{seed: 7, nodes: 13, proto: "ccr-edf"}
	full := buildSkipRig(t, c, false)
	all := &sampleLog{}
	full.nets[0].Attach(all)
	p := full.nets[0].Params()
	tab := timing.NewTable(p)
	horizon := 200 * p.SlotTime()
	full.run(horizon)

	inside := 0
	for cut := timing.Time(1); cut < horizon; cut += 5*p.SlotTime()/3 + 1 {
		late := buildSkipRig(t, c, false)
		late.run(cut)
		if log := late.logs[0]; cut > log.slotStart && cut < log.slotStart+tab.MinSlot {
			inside++
		}
		rest := &sampleLog{}
		late.nets[0].Attach(rest)
		late.run(horizon)
		k := sort.Search(len(all.at), func(i int) bool { return all.at[i] > cut })
		if got, want := strings.Join(rest.samples, "\n"), strings.Join(all.samples[k:], "\n"); got != want {
			t.Fatalf("attached at %v: %d samples, want %d:\n%s\nwant:\n%s", cut, len(rest.samples), len(all.samples)-k,
				got[:min(len(got), 400)], want[:min(len(want), 400)])
		}
	}
	if inside < 10 {
		t.Fatalf("only %d attach points fell inside a collection round", inside)
	}
	t.Logf("%d attach points inside a collection round", inside)
}
