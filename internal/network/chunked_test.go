package network

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"ccredf/internal/core"
	"ccredf/internal/ring"
	"ccredf/internal/sched"
	"ccredf/internal/timing"
	"ccredf/internal/topology"
	"ccredf/internal/trace"
)

// chunkFabric builds a 5-ring and a 7-ring bridged once, with a cross-ring
// connection, a local connection and a best-effort submitter on each ring,
// and FailMasterAt on ring 1: that ring goes silent for its recovery timeout
// while ring 0 keeps clocking, and the recovery re-arms it from a queued
// event. When recoveredAt is non-zero, every node of ring 1 also submits an
// urgent message just before the master's own collection sample of the slot
// that recovery starts at recoveredAt: the other nodes' samples have passed,
// so those messages wait a round. It returns the fabric and one tracer per ring.
func chunkFabric(t *testing.T, recoveredAt timing.Time) (*MultiNet, []*trace.Tracer) {
	t.Helper()
	topo, err := topology.New(topology.Spec{
		Rings:   []int{5, 7},
		Bridges: []topology.Bridge{{RingA: 0, NodeA: 2, RingB: 1, NodeB: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{5, 7}
	cfgs := make([]Config, len(sizes))
	for i, n := range sizes {
		arb, err := core.NewArbiter(n, sched.Map5Bit, true)
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = Config{Params: timing.DefaultParams(n), Protocol: arb, Seed: uint64(7 + i)}
	}
	cfgs[1].FailMasterAt = 40
	m, err := NewMulti(MultiConfig{Topo: topo, RingConfigs: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	tracers := make([]*trace.Tracer, len(sizes))
	for i := range tracers {
		tracers[i] = trace.New(0)
		m.Ring(i).AttachTracer(tracers[i])
	}
	slot := m.Ring(0).Params().SlotTime()
	if _, err := m.OpenCross(CrossRequest{
		SrcRing: 0, Src: 1, DstRing: 1, Dests: ring.Node(4),
		Period: 9 * slot, Slots: 1, Deadline: 12 * slot,
	}); err != nil {
		t.Fatal(err)
	}
	for ri, n := range sizes {
		net := m.Ring(ri)
		if _, err := net.OpenConnection(sched.Connection{
			Src: 1, Dests: ring.Node(n - 1), Period: 3*slot + slot/7, Slots: 1,
		}); err != nil {
			t.Fatal(err)
		}
		// A best-effort submitter on an interval unrelated to the slot, so
		// its events fall between collection samples.
		src, interval := 0, slot*3/8+timing.Time(17*ri)
		var submit func(timing.Time)
		submit = func(timing.Time) {
			if _, err := net.SubmitMessage(sched.ClassBestEffort, src, ring.Node((src+2)%n), 1, 50*slot); err != nil {
				t.Errorf("ring %d submit: %v", ri, err)
			}
			src = (src + 1) % n
			net.After(interval, submit)
		}
		net.After(interval, submit)
	}
	if recoveredAt > 0 {
		net := m.Ring(1)
		net.At(recoveredAt+net.tt.MinSlot-1, func(timing.Time) {
			for src := 0; src < sizes[1]; src++ {
				if _, err := net.SubmitMessage(sched.ClassRealTime, src, ring.Node((src+1)%sizes[1]), 1, 2*slot); err != nil {
					t.Errorf("ring 1 submit: %v", err)
				}
			}
		})
	}
	return m, tracers
}

func renderTraces(t *testing.T, tracers []*trace.Tracer) [][]byte {
	t.Helper()
	out := make([][]byte, len(tracers))
	for i, tr := range tracers {
		var b bytes.Buffer
		if err := tr.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		out[i] = b.Bytes()
	}
	return out
}

// TestMultiRingChunkedRunMatchesContinuous pins that a horizon may land
// anywhere in a multi-ring run: each ring's trace must equal the continuous
// run's, whichever ring's Run is called. One chunked run stops at, just
// before and just after every traced event time, and halfway between
// consecutive ones — mid-slot, mid-gap, and inside ring 1's recovery silence
// while ring 0 keeps clocking. Others step by odd fractions of a slot. The
// case a lone ring never meets is another ring's recovery timeout re-arming
// it inside a chunk: the executor must choose the earliest engine point
// again after every queued event, never drain the queue to the horizon —
// the submissions chunkFabric places inside the recovered slot's collection
// round would then reach samples that have already passed.
func TestMultiRingChunkedRunMatchesContinuous(t *testing.T) {
	probe, probeTracers := chunkFabric(t, 0)
	p := probe.Ring(0).Params()
	horizon := 120 * (p.SlotTime() + p.MaxHandoverTime())
	probe.Run(horizon)
	var lossAt, recoveryAt timing.Time
	for _, r := range probeTracers[1].Records() {
		switch r.Kind {
		case trace.MasterLoss:
			lossAt = r.Time
		case trace.Recovery:
			recoveryAt = r.Time
		}
	}
	if lossAt == 0 || recoveryAt <= lossAt {
		t.Fatalf("ring 1 master loss at %v, recovery at %v: the scenario lost its silence", lossAt, recoveryAt)
	}

	ref, refTracers := chunkFabric(t, recoveryAt)
	ref.Run(horizon)
	want := renderTraces(t, refTracers)

	// Dense stops around every traced time of either ring.
	seen := map[timing.Time]bool{}
	var times []timing.Time
	for _, tr := range refTracers {
		for _, r := range tr.Records() {
			if !seen[r.Time] {
				seen[r.Time] = true
				times = append(times, r.Time)
			}
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	var dense []timing.Time
	inSilence := 0
	for i, at := range times {
		dense = append(dense, at-1, at, at+1)
		if i+1 < len(times) {
			mid := at + (times[i+1]-at)/2
			dense = append(dense, mid)
			if mid > lossAt && mid < recoveryAt {
				inSilence++
			}
		}
	}
	if inSilence == 0 {
		t.Fatal("no horizon lands inside ring 1's recovery silence")
	}
	sort.Slice(dense, func(i, j int) bool { return dense[i] < dense[j] })
	plans := map[string][]timing.Time{"dense": dense}
	slot := p.SlotTime()
	for _, step := range []timing.Time{slot/3 + 1, slot*5/7 + 13, slot*3/2 + 101, 4*slot - 7} {
		var stops []timing.Time
		for at := step; at < horizon; at += step {
			stops = append(stops, at)
		}
		plans[fmt.Sprintf("step %v", step)] = stops
	}

	for name, stops := range plans {
		m, tracers := chunkFabric(t, recoveryAt)
		last := timing.Time(0)
		for i, at := range stops {
			if at <= last || at > horizon {
				continue
			}
			last = at
			// Rotate between the fabric's Run and each ring's own.
			switch i % 3 {
			case 0:
				m.Run(at)
			case 1:
				m.Ring(0).Run(at)
			default:
				m.Ring(1).Run(at)
			}
			if now := m.Now(); now != at {
				t.Fatalf("%s: Run(%v) left the clock at %v", name, at, now)
			}
		}
		m.Run(horizon)
		for ri, got := range renderTraces(t, tracers) {
			if !bytes.Equal(got, want[ri]) {
				t.Errorf("%s: ring %d trace differs from the continuous run (%d vs %d bytes)", name, ri, len(got), len(want[ri]))
			}
		}
	}

	// A continuous run through ring 1's Run is the fabric's run.
	one, oneTracers := chunkFabric(t, recoveryAt)
	one.Ring(1).Run(horizon)
	for ri, got := range renderTraces(t, oneTracers) {
		if !bytes.Equal(got, want[ri]) {
			t.Errorf("ring %d: Ring(1).Run trace differs from MultiNet.Run", ri)
		}
	}
}
