// ccr-bench regenerates every table and figure of the experiment suite
// (DESIGN.md §4): the paper's artefacts P1–P7 and the evaluation E1–E12.
//
// Usage:
//
//	ccr-bench                  # run the full suite
//	ccr-bench -id E2,E3        # run selected experiments
//	ccr-bench -quick           # 10× shorter horizons
//	ccr-bench -list            # list experiment IDs and titles
//	ccr-bench -out results.md  # also write a Markdown report
//	ccr-bench -json BENCH_slot_engine.json
//	                           # also write the benchmark baseline: per-slot
//	                           # cost of every experiment plus the slot-engine
//	                           # microbenchmark (runs serially)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"ccredf/internal/experiment"
	"ccredf/internal/runner"
	"ccredf/internal/slotbench"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list experiments and exit")
		ids        = flag.String("id", "", "comma-separated experiment IDs (default: all)")
		quick      = flag.Bool("quick", false, "10× shorter horizons")
		seed       = flag.Uint64("seed", 1, "random seed")
		out        = flag.String("out", "", "also write a Markdown report to this file")
		jsonOut    = flag.String("json", "", "also write the machine-readable benchmark baseline to this file (forces a serial run)")
		benchSlots = flag.Int64("bench-slots", 4096, "slot horizon of the -json slot-engine microbenchmark")
		benchRound = flag.Int("bench-rounds", 3, "measurement rounds of the -json slot-engine microbenchmark; the baseline keeps each protocol's fastest round")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "experiments to run in parallel")
	)
	flag.Parse()

	if *list {
		for _, e := range experiment.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	selected := experiment.All()
	if *ids != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*ids, ",") {
			e, ok := experiment.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "ccr-bench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	opts := experiment.Options{Seed: *seed, Quick: *quick}

	// Experiments are independent simulations: fan them out over a worker
	// pool, then print in suite order.
	run := func(i int) outcome {
		start := time.Now()
		res, err := selected[i].Run(opts)
		return outcome{res: res, err: err, elapsed: time.Since(start)}
	}
	var outcomes []outcome
	if *jsonOut != "" {
		// The baseline charges runtime.MemStats deltas to each experiment,
		// which is only attributable when nothing else runs concurrently.
		outcomes = make([]outcome, len(selected))
		var m0, m1 runtime.MemStats
		for i := range selected {
			runtime.GC()
			runtime.ReadMemStats(&m0)
			o := run(i)
			runtime.ReadMemStats(&m1)
			o.mallocs = m1.Mallocs - m0.Mallocs
			o.bytes = m1.TotalAlloc - m0.TotalAlloc
			outcomes[i] = o
		}
	} else {
		outcomes = runner.Map(len(selected), *workers, run)
	}

	var report strings.Builder
	failed := 0
	for i, e := range selected {
		res, err := outcomes[i].res, outcomes[i].err
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccr-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		verdict := "PASS"
		if !res.Pass {
			verdict = "FAIL"
			failed++
		}
		header := fmt.Sprintf("=== %s — %s [%s, %.2fs]", res.ID, e.Title, verdict, outcomes[i].elapsed.Seconds())
		fmt.Println(header)
		fmt.Fprintf(&report, "\n## %s — %s (%s)\n\n", res.ID, e.Title, verdict)
		for _, tab := range res.Tables {
			fmt.Println(tab)
			fmt.Fprintf(&report, "```\n%s```\n", tab)
		}
		for _, n := range res.Notes {
			fmt.Printf("note: %s\n", n)
			fmt.Fprintf(&report, "- %s\n", n)
		}
		for _, f := range res.Failures {
			fmt.Printf("FAIL: %s\n", f)
			fmt.Fprintf(&report, "- **FAIL**: %s\n", f)
		}
		fmt.Println()
	}

	if *out != "" {
		doc := "# CCR-EDF experiment report\n" + report.String()
		if err := os.WriteFile(*out, []byte(doc), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ccr-bench: write %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *jsonOut != "" {
		if err := writeBaseline(*jsonOut, selected, outcomes, *benchSlots, *benchRound); err != nil {
			fmt.Fprintf(os.Stderr, "ccr-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "ccr-bench: %d experiment(s) failed validation\n", failed)
		os.Exit(1)
	}
}

// outcome is one experiment's run plus its (serial-only) allocation deltas.
type outcome struct {
	res            *experiment.Result
	err            error
	elapsed        time.Duration
	mallocs, bytes uint64
}

// experimentBench is the per-experiment entry of the JSON baseline.
type experimentBench struct {
	ID            string  `json:"id"`
	Title         string  `json:"title"`
	Pass          bool    `json:"pass"`
	Slots         int64   `json:"slots"`
	ElapsedS      float64 `json:"elapsed_s"`
	NsPerSlot     float64 `json:"ns_per_slot"`
	AllocsPerSlot float64 `json:"allocs_per_slot"`
	BytesPerSlot  float64 `json:"bytes_per_slot"`
}

// baseline is the BENCH_slot_engine.json document: the steady-state
// slot-engine microbenchmark (the number CI gates on) and per-experiment
// per-slot costs for the whole P/E suite.
//
// Schema 3: slot-engine entries carry requested_slots (the RunSlots budget)
// next to slots (the count actually executed — real hand-over gaps beat the
// worst-case budget, so the two differ per protocol). Schema 2 also carried
// the figures of a batched multi-replica engine that no longer exists.
type baseline struct {
	Schema      int               `json:"schema"`
	Go          string            `json:"go"`
	BenchSlots  int64             `json:"bench_slots"`
	SlotEngine  []slotbench.Stats `json:"slot_engine"`
	Experiments []experimentBench `json:"experiments"`
}

// measureBest repeats one protocol's measurement and keeps the fastest
// round. Wall-clock per-slot cost on a shared machine is noisy in one
// direction only — preemption and cache eviction inflate it, nothing
// deflates it — so the minimum over a few rounds is the robust estimate of
// the engine's true cost, and the committed baseline stays comparable across
// regenerations on differently-loaded hosts.
func measureBest(rounds int, measure func() (slotbench.Stats, error)) (slotbench.Stats, error) {
	if rounds < 1 {
		rounds = 1
	}
	var best slotbench.Stats
	for r := 0; r < rounds; r++ {
		st, err := measure()
		if err != nil {
			return slotbench.Stats{}, err
		}
		if r == 0 || st.NsPerSlot < best.NsPerSlot {
			best = st
		}
	}
	return best, nil
}

func writeBaseline(path string, selected []experiment.Experiment, outcomes []outcome, benchSlots int64, benchRounds int) error {
	doc := baseline{Schema: 3, Go: runtime.Version(), BenchSlots: benchSlots}
	for _, name := range slotbench.Protocols {
		name := name
		st, err := measureBest(benchRounds, func() (slotbench.Stats, error) {
			return slotbench.Measure(name, benchSlots)
		})
		if err != nil {
			return err
		}
		doc.SlotEngine = append(doc.SlotEngine, st)
	}
	for i := range selected {
		res := outcomes[i].res
		eb := experimentBench{
			ID:       res.ID,
			Title:    selected[i].Title,
			Pass:     res.Pass,
			Slots:    res.Slots,
			ElapsedS: outcomes[i].elapsed.Seconds(),
		}
		// P1/P2 and the analytic experiments run no simulation: per-slot
		// figures are meaningless there and stay zero.
		if res.Slots > 0 {
			eb.NsPerSlot = float64(outcomes[i].elapsed.Nanoseconds()) / float64(res.Slots)
			eb.AllocsPerSlot = float64(outcomes[i].mallocs) / float64(res.Slots)
			eb.BytesPerSlot = float64(outcomes[i].bytes) / float64(res.Slots)
		}
		doc.Experiments = append(doc.Experiments, eb)
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}
