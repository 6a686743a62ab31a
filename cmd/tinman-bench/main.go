// Command tinman-bench regenerates every table and figure of the TinMan
// evaluation (§6) on stdout.
//
// Usage:
//
//	tinman-bench                  # everything
//	tinman-bench -fig 13          # one figure (13, 14, 15, 16, 17)
//	tinman-bench -table 3         # Table 3
//	tinman-bench -short           # shortened battery runs
//	tinman-bench -seed 7 -rounds 9
//	tinman-bench -analyze=on      # Fig 13 / -json with the taint
//	                              # pre-analysis fast path enabled
//	                              # (default off = the paper's fully
//	                              # instrumented interpreter)
//
// Trusted-node and fleet throughput are not measured here: tinbench
// (`bash tinbench/run.sh --workload reseal|fleet`) drives them, and a
// running node exports its own metrics (`tinman-node -admin`).
//
// -spans augments Fig 14/15 with the observability subsystem's per-phase
// span breakdown (self time per phase of each traced login, plus how much
// of the wall time the span tree attributes). -traceout FILE additionally
// writes the traced Wi-Fi logins as Chrome trace_event JSON
// (chrome://tracing / Perfetto); -spansout FILE writes the raw span records
// as JSON lines.
//
// -json FILE appends a machine-readable Caffeinemark run (per-kernel ns/op
// and allocs/op under every policy, plus the unlinked reference
// interpreter) to FILE — `make bench-json` maintains BENCH_vm.json this
// way, as `make bench-offload` and `make bench-store` maintain their files
// with -offload and -store. Each run records the binary's commit, so build
// the binary rather than `go run` it. -cpuprofile/-memprofile capture
// pprof profiles of whatever work the invocation performs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"tinman/internal/bench"
	"tinman/internal/netsim"
	"tinman/internal/obs"
)

func main() {
	var (
		fig      = flag.Int("fig", 0, "reproduce only this figure (13/14/15/16/17)")
		table    = flag.Int("table", 0, "reproduce only this table (3)")
		seed     = flag.Int64("seed", 42, "simulation seed")
		rounds   = flag.Int("rounds", 7, "measurement rounds for Caffeinemark")
		short    = flag.Bool("short", false, "shorten the battery experiments")
		ablation = flag.Bool("ablation", false, "also run the design-choice ablations")
		analyze  = flag.String("analyze", "off", "static taint pre-analysis for Fig 13 / -json runs: off (paper's fully instrumented interpreter) or on (uninstrumented fast path for provably taint-free code)")

		spans    = flag.Bool("spans", false, "augment Fig 14/15 with the per-phase span breakdown")
		traceout = flag.String("traceout", "", "write traced Wi-Fi logins as Chrome trace_event JSON to this file")
		spansout = flag.String("spansout", "", "write traced Wi-Fi login span records as JSON lines to this file")

		jsonPath    = flag.String("json", "", "append a machine-readable Caffeinemark run to this file (e.g. BENCH_vm.json) instead of the paper figures")
		storePath   = flag.String("store", "", "append a storage-engine run (WAL append throughput vs the in-memory log, recovery time vs log size) to this file (e.g. BENCH_store.json) instead of the paper figures")
		offloadPath = flag.String("offload", "", "append a warm-vs-cold offload latency run (trigger to first node instruction, per login app) to this file (e.g. BENCH_offload.json) instead of the paper figures")
		label       = flag.String("label", "", "label stored with the -json run (e.g. a commit subject)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	all := *fig == 0 && *table == 0
	out := os.Stdout
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "tinman-bench: %v\n", err)
		os.Exit(1)
	}
	var analyzeOn bool
	switch *analyze {
	case "off":
	case "on":
		analyzeOn = true
	default:
		fail(fmt.Errorf("-analyze must be off or on, got %q", *analyze))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	if *jsonPath != "" {
		run, err := bench.MeasureVMBench(*label, *rounds, analyzeOn)
		if err != nil {
			fail(err)
		}
		bench.PrintVMBenchRun(out, run)
		if err := bench.AppendRun(*jsonPath, run); err != nil {
			fail(err)
		}
		fmt.Fprintf(out, "appended to %s\n", *jsonPath)
		return
	}

	if *storePath != "" {
		bench.Separator(out, "Storage engine — WAL group commit vs in-memory log; recovery vs log size")
		run, err := bench.MeasureStoreBench(*label)
		if err != nil {
			fail(err)
		}
		bench.PrintStoreBenchRun(out, run)
		if err := bench.AppendRun(*storePath, run); err != nil {
			fail(err)
		}
		fmt.Fprintf(out, "appended to %s\n", *storePath)
		return
	}

	if *offloadPath != "" {
		bench.Separator(out, "Speculative warm-up — trigger-to-first-node-instruction, cold vs warm")
		rows, err := bench.Offload(netsim.WiFi, *seed)
		if err != nil {
			fail(err)
		}
		bench.PrintOffload(out, rows)
		run := bench.PackOffload(*label, netsim.WiFi, *seed, rows)
		if err := bench.AppendRun(*offloadPath, run); err != nil {
			fail(err)
		}
		fmt.Fprintf(out, "appended to %s\n", *offloadPath)
		return
	}

	if all || *fig == 13 {
		title := "Figure 13 — Caffeinemark under tainting configurations"
		if analyzeOn {
			title += " (taint pre-analysis on)"
		}
		bench.Separator(out, title)
		rows, err := bench.CaffeinemarkMode(*rounds, analyzeOn)
		if err != nil {
			fail(err)
		}
		bench.PrintFig13(out, rows)
	}

	if all || *fig == 14 {
		bench.Separator(out, "Figure 14 — login latency, Wi-Fi")
		rows, err := bench.LoginLatency(netsim.WiFi, *seed)
		if err != nil {
			fail(err)
		}
		bench.PrintLogin(out, "Figure 14 (paper: 4.0s -> 5.95s avg; DSM 0.8s; SSL/TCP 1.2s)", rows)
		if err := spanExtras(out, netsim.WiFi, *seed, *spans, *traceout, *spansout); err != nil {
			fail(err)
		}
	}

	if all || *fig == 15 {
		bench.Separator(out, "Figure 15 — login latency, 3G")
		rows, err := bench.LoginLatency(netsim.ThreeG, *seed)
		if err != nil {
			fail(err)
		}
		bench.PrintLogin(out, "Figure 15 (paper: 5.4s -> 8.2s avg; DSM 1.2s; other 1.6s)", rows)
		if *spans {
			reps, err := bench.TraceLogins(netsim.ThreeG, *seed)
			if err != nil {
				fail(err)
			}
			bench.PrintSpanBreakdown(out, reps)
		}
	}

	if all || *table == 3 {
		bench.Separator(out, "Table 3 — offload accounting")
		rows, err := bench.Table3(*seed)
		if err != nil {
			fail(err)
		}
		bench.PrintTable3(out, rows)
		fmt.Fprintln(out, "paper:    paypal 10274 (4.7%) 2 syncs 768.5KB/24.3KB; ebay 2835 (2.4%) 4 759.8/16.6;")
		fmt.Fprintln(out, "          github 1672 (2.0%) 3 603.0/4.9; askfm 1791 (1.7%) 4 716.6/18.7")
	}

	if all || *fig == 16 {
		total := 30 * time.Minute
		if *short {
			total = 5 * time.Minute
		}
		bench.Separator(out, fmt.Sprintf("Figure 16 — battery, %v PayPal login stress", total))
		curves, err := bench.LoginStress(total, 10*time.Second, *seed)
		if err != nil {
			fail(err)
		}
		bench.PrintBattery(out, "Figure 16 (paper after 30min: Android 93%, TinMan 91%)", curves)
	}

	if *ablation {
		bench.Separator(out, "Ablations")
		rows, err := bench.Ablations(*seed)
		if err != nil {
			fail(err)
		}
		bench.PrintAblations(out, rows)
	}

	if all || *fig == 17 {
		phase := 10 * time.Minute
		if *short {
			phase = 2 * time.Minute
		}
		bench.Separator(out, fmt.Sprintf("Figure 17 — battery, 3 x %v workloads, tainting only", phase))
		curves, err := bench.TaintingBattery(phase, 10*time.Second, *seed)
		if err != nil {
			fail(err)
		}
		bench.PrintBattery(out, "Figure 17 (paper: curves nearly coincide)", curves)
	}
}

// spanExtras renders the Wi-Fi traced-login artifacts requested on the
// command line: the textual per-phase breakdown and/or exporter files.
func spanExtras(out *os.File, profile netsim.Profile, seed int64, spans bool, traceout, spansout string) error {
	if !spans && traceout == "" && spansout == "" {
		return nil
	}
	reps, err := bench.TraceLogins(profile, seed)
	if err != nil {
		return err
	}
	if spans {
		bench.PrintSpanBreakdown(out, reps)
	}
	var recs []obs.SpanRecord
	for _, rep := range reps {
		recs = append(recs, rep.Records...)
	}
	writeFile := func(path string, write func(*os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if traceout != "" {
		if err := writeFile(traceout, func(f *os.File) error {
			return obs.WriteChromeTrace(f, recs)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote Chrome trace (%d records) to %s\n", len(recs), traceout)
	}
	if spansout != "" {
		if err := writeFile(spansout, func(f *os.File) error {
			return obs.WriteJSONLines(f, recs)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote span JSON lines (%d records) to %s\n", len(recs), spansout)
	}
	return nil
}
