// Benchmarks regenerating every paper artefact (P1–P7) and every evaluation
// experiment (E1–E12) of DESIGN.md §4. Each benchmark executes its
// experiment end to end per iteration (bounded horizons) and reports the
// experiment's headline figure as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire suite. cmd/ccr-bench prints the full tables.
package ccredf_test

import (
	"testing"

	"ccredf"
	"ccredf/internal/experiment"
	"ccredf/internal/sched"
	"ccredf/internal/slotbench"
	"ccredf/internal/timing"
)

// benchOpts keeps one benchmark iteration bounded (~tens of milliseconds).
func benchOpts() experiment.Options {
	return experiment.Options{Seed: 1, HorizonSlots: 800}
}

func runExperiment(b *testing.B, id string, metric func(*experiment.Result) (float64, string)) {
	b.Helper()
	e, ok := experiment.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var last *experiment.Result
	for i := 0; i < b.N; i++ {
		res, err := e.Run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if !res.Pass {
			b.Fatalf("%s validations failed: %v", id, res.Failures)
		}
		last = res
	}
	if metric != nil && last != nil {
		v, unit := metric(last)
		b.ReportMetric(v, unit)
	}
}

func BenchmarkP1PriorityMapping(b *testing.B) { runExperiment(b, "P1", nil) }
func BenchmarkP2PacketCodec(b *testing.B)     { runExperiment(b, "P2", nil) }
func BenchmarkP3Handover(b *testing.B)        { runExperiment(b, "P3", nil) }
func BenchmarkP4MinSlot(b *testing.B)         { runExperiment(b, "P4", nil) }
func BenchmarkP5LatencyBound(b *testing.B)    { runExperiment(b, "P5", nil) }
func BenchmarkP6UMax(b *testing.B)            { runExperiment(b, "P6", nil) }
func BenchmarkP7Fig2Scenario(b *testing.B)    { runExperiment(b, "P7", nil) }
func BenchmarkE1Guarantee(b *testing.B)       { runExperiment(b, "E1", nil) }
func BenchmarkE2VsCCFPR(b *testing.B)         { runExperiment(b, "E2", nil) }
func BenchmarkE3SpatialReuse(b *testing.B)    { runExperiment(b, "E3", nil) }
func BenchmarkE4GapOverhead(b *testing.B)     { runExperiment(b, "E4", nil) }
func BenchmarkE5BestEffort(b *testing.B)      { runExperiment(b, "E5", nil) }
func BenchmarkE6Admission(b *testing.B)       { runExperiment(b, "E6", nil) }
func BenchmarkE7Quantisation(b *testing.B)    { runExperiment(b, "E7", nil) }
func BenchmarkE8GroupOps(b *testing.B)        { runExperiment(b, "E8", nil) }
func BenchmarkE9Reliable(b *testing.B)        { runExperiment(b, "E9", nil) }
func BenchmarkE10Bounds(b *testing.B)         { runExperiment(b, "E10", nil) }
func BenchmarkE11Multicast(b *testing.B)      { runExperiment(b, "E11", nil) }
func BenchmarkE12FaultRecovery(b *testing.B)  { runExperiment(b, "E12", nil) }
func BenchmarkE13ThreeProtocols(b *testing.B) { runExperiment(b, "E13", nil) }
func BenchmarkE14ReuseAblation(b *testing.B)  { runExperiment(b, "E14", nil) }
func BenchmarkE15Replication(b *testing.B)    { runExperiment(b, "E15", nil) }
func BenchmarkE16Fairness(b *testing.B)       { runExperiment(b, "E16", nil) }
func BenchmarkE17SecondaryReqs(b *testing.B)  { runExperiment(b, "E17", nil) }
func BenchmarkE18Jitter(b *testing.B)         { runExperiment(b, "E18", nil) }
func BenchmarkE19SlotDesign(b *testing.B)     { runExperiment(b, "E19", nil) }
func BenchmarkE20UnequalLinks(b *testing.B)   { runExperiment(b, "E20", nil) }
func BenchmarkE21FaultInjection(b *testing.B) { runExperiment(b, "E21", nil) }

// BenchmarkSlotEngine measures raw simulation speed: simulated slots per
// second of an 8-node ring at ~70% admitted load.
func BenchmarkSlotEngine(b *testing.B) {
	cfg := ccredf.DefaultConfig(8)
	cfg.ExactEDF = true
	net, err := ccredf.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := net.Params()
	for i := 0; i < 7; i++ {
		if _, err := net.OpenConnection(ccredf.Connection{
			Src: i, Dests: ccredf.Node((i + 3) % 8), Period: 10 * p.SlotTime(), Slots: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	start := net.Slot()
	for i := 0; i < b.N; i++ {
		net.RunSlots(1)
	}
	b.ReportMetric(float64(net.Slot()-start)/float64(b.N), "slots/op")
}

// BenchmarkSaturatedRing measures the engine under full spatial reuse
// pressure (every node saturated with neighbour traffic).
func BenchmarkSaturatedRing(b *testing.B) {
	cfg := ccredf.DefaultConfig(16)
	net, err := ccredf.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := net.Params()
	for i := 0; i < 16; i++ {
		net.AttachPoisson(ccredf.Poisson{
			Node: i, Class: ccredf.ClassBestEffort,
			MeanInterarrival: p.SlotTime(), Slots: 1,
			RelDeadline: 1000 * p.SlotTime(), Dest: ccredf.NeighbourDest,
		}, uint64(i+1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.RunSlots(1)
	}
	b.ReportMetric(net.Metrics().SpatialReuseFactor(), "links/slot")
}

// BenchmarkSteadyStateSlots pins the allocation-free steady-state slot loop
// per protocol over the shared slotbench workload — the same workload the
// zero-alloc tests and BENCH_slot_engine.json measure. With -benchmem the
// B/op and allocs/op columns must read 0.
func BenchmarkSteadyStateSlots(b *testing.B) {
	for _, name := range slotbench.Protocols {
		b.Run(name, func(b *testing.B) {
			net, err := slotbench.New(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := net.Slot()
			for i := 0; i < b.N; i++ {
				net.RunSlots(1)
			}
			b.ReportMetric(float64(net.Slot()-start)/float64(b.N), "slots/op")
		})
	}
}

// BenchmarkIdleSlots measures the slot loop of an idle 32-node ring per
// protocol (slotbench.NewIdle): every collection round finds nothing queued,
// so a slot costs a round point that visits no station, an empty
// arbitration and the hand-over. With -benchmem the B/op and allocs/op
// columns must read 0.
func BenchmarkIdleSlots(b *testing.B) {
	for _, name := range slotbench.Protocols {
		b.Run(name, func(b *testing.B) {
			net, err := slotbench.NewIdle(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := net.Slot()
			for i := 0; i < b.N; i++ {
				net.RunSlots(1)
			}
			b.ReportMetric(float64(net.Slot()-start)/float64(b.N), "slots/op")
		})
	}
}

// BenchmarkAdmissionControl measures the admission test itself.
func BenchmarkAdmissionControl(b *testing.B) {
	p := timing.DefaultParams(8)
	a := sched.NewAdmission(p)
	c := ccredf.Connection{Src: 0, Dests: ccredf.Node(1), Period: 1000 * p.SlotTime(), Slots: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got, err := a.Request(c)
		if err != nil {
			b.Fatal(err)
		}
		a.Release(got.ID)
	}
}
