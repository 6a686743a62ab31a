package bench

import (
	"fmt"
	"io"
	"time"

	"tinman/internal/apps"
	"tinman/internal/netsim"
)

// This file measures what the speculative DSM warm-up buys (the pipeline
// LoginLatency/Table3 deliberately disable): per app, the first login's
// trigger-to-first-node-instruction latency and trigger-time sync volume,
// cold (full snapshot ships at the trigger) versus warm (the snapshot
// streamed in the background, only the dirty delta ships). `tinman-bench
// -offload FILE` (and `make bench-offload`) append runs to
// BENCH_offload.json.

// OffloadRow is one app's cold-vs-warm comparison. All times are virtual
// clock, so rows are deterministic per seed.
type OffloadRow struct {
	App string
	// ColdTTE/WarmTTE are the first offload's trigger-to-first-node-
	// instruction latencies; the cold one includes serializing and shipping
	// the full framework heap.
	ColdTTE time.Duration
	WarmTTE time.Duration
	// ColdTriggerBytes/WarmTriggerBytes are the first trigger-time
	// migration's wire size: the full snapshot cold, the dirty delta warm.
	ColdTriggerBytes int
	WarmTriggerBytes int
	// WarmupBytes/WarmupChunks account the background stream that made the
	// warm trigger small; it overlaps device execution instead of blocking
	// the trigger.
	WarmupBytes  int
	WarmupChunks int
	// WarmHits/WarmMisses are the warm run's admission outcomes.
	WarmHits   int
	WarmMisses int
	// ColdTotal/WarmTotal are the end-to-end login times.
	ColdTotal time.Duration
	WarmTotal time.Duration
}

// Speedup returns ColdTTE/WarmTTE — how much faster the node resumes the
// thread when the snapshot was speculatively pre-shipped.
func (r OffloadRow) Speedup() float64 {
	if r.WarmTTE == 0 {
		return 0
	}
	return float64(r.ColdTTE) / float64(r.WarmTTE)
}

// Offload runs each login app twice — warm-up disabled, then enabled — and
// returns the per-app comparison.
func Offload(profile netsim.Profile, seed int64) ([]OffloadRow, error) {
	rows := make([]OffloadRow, 0, len(apps.LoginApps))
	for _, spec := range apps.LoginApps {
		row := OffloadRow{App: spec.Name}

		cold, err := apps.NewLoginEnv(apps.EnvConfig{Profile: profile, TinMan: true, Seed: seed, NoWarmup: true})
		if err != nil {
			return nil, err
		}
		rc, err := cold.Login(spec.Name)
		if err != nil {
			return nil, fmt.Errorf("bench: %s cold: %v", spec.Name, err)
		}
		row.ColdTTE = rc.FirstTriggerToExec
		row.ColdTriggerBytes = rc.FirstTriggerSyncBytes
		row.ColdTotal = rc.Total

		warm, err := apps.NewLoginEnv(apps.EnvConfig{Profile: profile, TinMan: true, Seed: seed})
		if err != nil {
			return nil, err
		}
		rw, err := warm.Login(spec.Name)
		if err != nil {
			return nil, fmt.Errorf("bench: %s warm: %v", spec.Name, err)
		}
		row.WarmTTE = rw.FirstTriggerToExec
		row.WarmTriggerBytes = rw.FirstTriggerSyncBytes
		row.WarmupBytes = rw.WarmupBytes
		row.WarmupChunks = rw.WarmupChunks
		row.WarmHits = rw.WarmHits
		row.WarmMisses = rw.WarmMisses
		row.WarmTotal = rw.Total
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintOffload renders the comparison table.
func PrintOffload(w io.Writer, rows []OffloadRow) {
	fmt.Fprintf(w, "%-8s %14s %14s %9s %12s %12s %11s %9s\n",
		"app", "cold trig-exec", "warm trig-exec", "speedup", "cold trig B", "warm trig B", "warmup B", "hit/miss")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %14v %14v %8.1fx %12d %12d %11d %5d/%d\n",
			r.App, r.ColdTTE.Round(10*time.Microsecond), r.WarmTTE.Round(10*time.Microsecond),
			r.Speedup(), r.ColdTriggerBytes, r.WarmTriggerBytes, r.WarmupBytes, r.WarmHits, r.WarmMisses)
	}
}

// OffloadEntry is one app in the machine-readable trajectory.
type OffloadEntry struct {
	App                 string  `json:"app"`
	ColdTriggerToExecNs int64   `json:"cold_trigger_to_exec_ns"`
	WarmTriggerToExecNs int64   `json:"warm_trigger_to_exec_ns"`
	Speedup             float64 `json:"speedup"`
	ColdTriggerBytes    int     `json:"cold_trigger_sync_bytes"`
	WarmTriggerBytes    int     `json:"warm_trigger_sync_bytes"`
	WarmupBytes         int     `json:"warmup_bytes"`
	WarmupChunks        int     `json:"warmup_chunks"`
	WarmHits            int     `json:"warm_hits"`
	WarmMisses          int     `json:"warm_misses"`
	ColdTotalNs         int64   `json:"cold_total_ns"`
	WarmTotalNs         int64   `json:"warm_total_ns"`
}

// OffloadRun is one invocation of the emitter.
type OffloadRun struct {
	RunHeader
	Profile string         `json:"profile"`
	Seed    int64          `json:"seed"`
	Entries []OffloadEntry `json:"entries"`
}

// MeasureOffload runs the comparison and packages it for AppendRun.
func MeasureOffload(label string, profile netsim.Profile, seed int64) (OffloadRun, error) {
	rows, err := Offload(profile, seed)
	if err != nil {
		return OffloadRun{}, err
	}
	return PackOffload(label, profile, seed, rows), nil
}

// PackOffload wraps already-measured rows as an appendable run, so callers
// that printed the rows need not measure twice.
func PackOffload(label string, profile netsim.Profile, seed int64, rows []OffloadRow) OffloadRun {
	run := OffloadRun{RunHeader: newRunHeader(label), Profile: profile.Name, Seed: seed}
	for _, r := range rows {
		run.Entries = append(run.Entries, OffloadEntry{
			App:                 r.App,
			ColdTriggerToExecNs: r.ColdTTE.Nanoseconds(),
			WarmTriggerToExecNs: r.WarmTTE.Nanoseconds(),
			Speedup:             r.Speedup(),
			ColdTriggerBytes:    r.ColdTriggerBytes,
			WarmTriggerBytes:    r.WarmTriggerBytes,
			WarmupBytes:         r.WarmupBytes,
			WarmupChunks:        r.WarmupChunks,
			WarmHits:            r.WarmHits,
			WarmMisses:          r.WarmMisses,
			ColdTotalNs:         r.ColdTotal.Nanoseconds(),
			WarmTotalNs:         r.WarmTotal.Nanoseconds(),
		})
	}
	return run
}
