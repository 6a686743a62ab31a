// Package bench implements the paper's evaluation harness: one experiment
// per table and figure in §6, each returning printable rows so that
// cmd/tinman-bench and the Go benchmarks reproduce the published results.
package bench

import (
	"fmt"
	"time"

	"tinman/internal/apps"
	"tinman/internal/netsim"
)

// LoginRow is one bar group of Fig 14/15: an app's login latency under the
// original system and under TinMan, with TinMan's time broken down.
type LoginRow struct {
	App      string
	Baseline time.Duration
	TinMan   time.Duration
	// Breakdown of the TinMan run.
	DSM    time.Duration // DSM-based offloading (migrations + state sync)
	SSLTCP time.Duration // SSL session injection + TCP payload replacement
	Rest   time.Duration // app execution, network, server
	Err    error
}

// Overhead returns TinMan/Baseline.
func (r LoginRow) Overhead() float64 {
	if r.Baseline == 0 {
		return 0
	}
	return float64(r.TinMan) / float64(r.Baseline)
}

// LoginLatency reproduces Fig 14 (Wi-Fi) or Fig 15 (3G): per-app login
// latency, original Android vs TinMan, after warm-up (install is excluded
// from the measurement; the first post-install login, which includes the
// initial heap sync, is what the paper times). The speculative DSM warm-up
// is disabled: these figures characterize the paper's unoptimized
// pipeline — Offload in offload.go measures the speculation's effect.
func LoginLatency(profile netsim.Profile, seed int64) ([]LoginRow, error) {
	rows := make([]LoginRow, 0, len(apps.LoginApps))
	for _, spec := range apps.LoginApps {
		row := LoginRow{App: spec.Name}

		base, err := apps.NewLoginEnv(apps.EnvConfig{Profile: profile, TinMan: false, Seed: seed})
		if err != nil {
			return nil, err
		}
		rb, err := base.Login(spec.Name)
		if err != nil {
			return nil, fmt.Errorf("bench: %s baseline: %v", spec.Name, err)
		}
		row.Baseline = rb.Total

		tin, err := apps.NewLoginEnv(apps.EnvConfig{Profile: profile, TinMan: true, Seed: seed, NoWarmup: true})
		if err != nil {
			return nil, err
		}
		rt, err := tin.Login(spec.Name)
		if err != nil {
			return nil, fmt.Errorf("bench: %s tinman: %v", spec.Name, err)
		}
		row.TinMan = rt.Total
		row.DSM = rt.DSMTime
		row.SSLTCP = rt.SSLTime
		row.Rest = rt.Total - rt.DSMTime - rt.SSLTime
		rows = append(rows, row)
	}
	return rows, nil
}

// AverageLogin summarizes rows the way the paper quotes them ("the average
// latency increases from 4.0s to 5.95s, where offloading takes 0.8s and
// SSL/TCP related overhead is 1.2s").
func AverageLogin(rows []LoginRow) (baseline, tinman, dsm, ssltcp time.Duration) {
	if len(rows) == 0 {
		return
	}
	for _, r := range rows {
		baseline += r.Baseline
		tinman += r.TinMan
		dsm += r.DSM
		ssltcp += r.SSLTCP
	}
	n := time.Duration(len(rows))
	return baseline / n, tinman / n, dsm / n, ssltcp / n
}

// Table3Row is one row of Table 3.
type Table3Row struct {
	App string
	// OffCalls is the number of method invocations executed on the trusted
	// node; OffFraction its share of all invocations.
	OffCalls    uint64
	OffFraction float64
	// SyncTimes counts DSM synchronizations during the login.
	SyncTimes int
	// InitKB and DirtyKB are the initial and subsequent sync volumes.
	InitKB  float64
	DirtyKB float64
}

// Table3 reproduces the offload-accounting table over Wi-Fi. Warm-up is
// disabled so the Init column measures the paper's trigger-time full sync.
func Table3(seed int64) ([]Table3Row, error) {
	env, err := apps.NewLoginEnv(apps.EnvConfig{Profile: netsim.WiFi, TinMan: true, Seed: seed, NoWarmup: true})
	if err != nil {
		return nil, err
	}
	rows := make([]Table3Row, 0, len(apps.LoginApps))
	for _, spec := range apps.LoginApps {
		rep, err := env.Login(spec.Name)
		if err != nil {
			return nil, fmt.Errorf("bench: table3 %s: %v", spec.Name, err)
		}
		rows = append(rows, Table3Row{
			App:         spec.Name,
			OffCalls:    rep.NodeCalls,
			OffFraction: rep.OffloadedFraction(),
			SyncTimes:   rep.Syncs,
			InitKB:      float64(rep.InitBytes) / 1024,
			DirtyKB:     float64(rep.DirtyBytes) / 1024,
		})
	}
	return rows, nil
}
