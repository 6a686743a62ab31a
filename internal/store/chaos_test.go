package store

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tinman/internal/audit"
	"tinman/internal/fault"
)

// The kill-and-recover chaos suite: a deterministic workload is run
// against fault.CrashFS with kill -9 injected at every filesystem
// operation index (so every WAL commit boundary, every snapshot step, and
// every compaction delete gets its turn), then recovered — twice, with a
// second crash injected during recovery itself on a rotating subset of
// points. Invariants checked at every crash point:
//
//   - recovery succeeds and yields a gap-free prefix of the workload per
//     record stream (audit Seq 1..k, vault upserts 1..v) and the policy
//     document of the last policy record it kept (version p);
//   - recovery keeps whole Appends only: every chaosEveryV-th audit entry
//     shares one Append with a vault upsert and a policy document, so
//     v = p = k / chaosEveryV;
//   - every acknowledged record (Ticket.Wait returned nil before the
//     crash) is present — zero cor loss, zero audit loss;
//   - no cor plaintext appears anywhere on the post-crash disk;
//   - resuming the workload from the recovered state and finishing it
//     yields a final state bit-identical to a fault-free control run.

const (
	chaosAudit  = 36 // audit entries in the workload
	chaosEveryV = 6  // a vault upsert + policy document ride every n-th audit entry's Append
)

func chaosOpts(fs fault.FS) Options {
	opts := testOpts(fs)
	opts.SegmentBytes = 300 // force rotations
	opts.SnapshotEvery = 13 // force snapshots + compaction mid-workload
	return opts
}

func chaosVault(j int) VaultRecord {
	return VaultRecord{
		ID:        fmt.Sprintf("cor-%d", j),
		Plaintext: fmt.Sprintf("chaos-secret-%d-hunter2", j),
		Bit:       j,
	}
}

// chaosPolicy is the workload's j-th policy document, at version j.
func chaosPolicy(j int) PolicyRecord {
	return PolicyRecord{Version: uint64(j), Snapshot: []byte(fmt.Sprintf(`{"revoked":["dev-%d"]}`, j))}
}

func chaosSecrets() []string {
	var out []string
	for j := 1; j <= chaosAudit/chaosEveryV; j++ {
		out = append(out, chaosVault(j).Plaintext)
	}
	return out
}

// acked tracks how much of each stream was acknowledged durable.
type acked struct{ audit, vault, policy int }

// runChaosWorkload resumes the deterministic workload from the recovered
// state (from.audit entries already present) and runs until the first
// error or completion. Each audit entry is one Append; every
// chaosEveryV-th also carries that step's vault upsert and policy
// document. It returns the acknowledged high-water marks.
func runChaosWorkload(s *Store, from acked) acked {
	ack := from
	ctx := context.Background()
	for i := from.audit + 1; i <= chaosAudit; i++ {
		recs := []Record{Audit(entry(i))}
		j := i / chaosEveryV
		if i%chaosEveryV == 0 {
			recs = append(recs, Vault(chaosVault(j)), Policy(chaosPolicy(j)))
		}
		if err := s.Append(recs...).Wait(ctx); err != nil {
			return ack
		}
		ack = acked{audit: i, vault: j, policy: j}
	}
	return ack
}

// verifyPrefix checks that st is a gap-free prefix of the workload with at
// least the acknowledged records present, and returns the high-water
// marks for resuming.
func verifyPrefix(t *testing.T, tag string, st State, ack acked) acked {
	t.Helper()
	for i, e := range st.Audit {
		if want := entry(i + 1); !reflect.DeepEqual(e, want) {
			t.Fatalf("%s: audit[%d] = %+v, want %+v", tag, i, e, want)
		}
	}
	if len(st.Audit) < ack.audit {
		t.Fatalf("%s: lost acknowledged audit entries: have %d, acked %d", tag, len(st.Audit), ack.audit)
	}
	for i, r := range st.Vault {
		if want := chaosVault(i + 1); !reflect.DeepEqual(r, want) {
			t.Fatalf("%s: vault[%d] = %+v, want %+v", tag, i, r, want)
		}
	}
	if len(st.Vault) < ack.vault {
		t.Fatalf("%s: lost acknowledged cors: have %d, acked %d", tag, len(st.Vault), ack.vault)
	}
	p := int(st.Policy.Version)
	if p != 0 {
		if want := chaosPolicy(p); !reflect.DeepEqual(st.Policy, want) {
			t.Fatalf("%s: policy = %+v, want %+v", tag, st.Policy, want)
		}
	}
	if p < ack.policy {
		t.Fatalf("%s: lost acknowledged policy documents: have v%d, acked v%d", tag, p, ack.policy)
	}
	return acked{audit: len(st.Audit), vault: len(st.Vault), policy: p}
}

// controlRun produces the fault-free final state and the total number of
// filesystem operations the full workload takes (the sweep bound).
func controlRun(t *testing.T) (State, int) {
	t.Helper()
	fs := fault.NewCrashFS(99)
	s := mustOpen(t, chaosOpts(fs))
	if got := runChaosWorkload(s, acked{}); got.audit != chaosAudit {
		t.Fatalf("control run incomplete: %+v", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("control close: %v", err)
	}
	ops := fs.Ops()
	r := mustOpen(t, chaosOpts(fs))
	defer r.Close()
	return r.State(), ops
}

func TestChaosKillRecoverSweep(t *testing.T) {
	control, totalOps := controlRun(t)
	if totalOps < 50 {
		t.Fatalf("workload too small to sweep (%d ops)", totalOps)
	}
	secrets := chaosSecrets()

	for crashAt := 0; crashAt < totalOps; crashAt++ {
		fs := fault.NewCrashFS(99)
		fs.CrashAfter(crashAt)

		var ack acked
		s, err := Open(chaosOpts(fs))
		if err == nil {
			ack = runChaosWorkload(s, acked{})
			s.Close()
		} else if !errors.Is(err, fault.ErrCrashed) {
			t.Fatalf("crashAt=%d: pre-crash open failed oddly: %v", crashAt, err)
		}
		if !fs.Crashed() {
			// The schedule landed after the workload finished — the
			// remaining indices belong to ops that never ran.
			break
		}
		fs.Restart()

		// No cor plaintext on the post-crash disk, ever.
		if hits := fault.ScanForPlaintext(fs.DiskBytes(), secrets); len(hits) != 0 {
			t.Fatalf("crashAt=%d: plaintext on disk after crash: %v", crashAt, hits)
		}

		// Every 4th point: inject a second crash during recovery itself.
		if crashAt%4 == 0 {
			fs.CrashAfter(1 + crashAt%11)
			if _, err := Open(chaosOpts(fs)); err == nil {
				// Recovery finished before the second schedule fired; the
				// store is open and healthy — fall through via reopen below.
			}
			if fs.Crashed() {
				fs.Restart()
			} else {
				fs.CrashAfter(-1)
			}
		}

		r, err := Open(chaosOpts(fs))
		if err != nil {
			t.Fatalf("crashAt=%d: recovery failed: %v", crashAt, err)
		}
		from := verifyPrefix(t, fmt.Sprintf("crashAt=%d", crashAt), r.State(), ack)
		if j := from.audit / chaosEveryV; from.vault != j || from.policy != j {
			t.Fatalf("crashAt=%d: recovered part of an Append: %d audit entries, %d vault records, policy v%d",
				crashAt, from.audit, from.vault, from.policy)
		}

		// Resume and finish; the final state must be bit-identical to the
		// fault-free control.
		if got := runChaosWorkload(r, from); got.audit != chaosAudit {
			t.Fatalf("crashAt=%d: resumed workload stalled at %+v", crashAt, got)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("crashAt=%d: close after resume: %v", crashAt, err)
		}
		f, err := Open(chaosOpts(fs))
		if err != nil {
			t.Fatalf("crashAt=%d: final reopen: %v", crashAt, err)
		}
		final := f.State()
		f.Close()
		if !reflect.DeepEqual(final.Audit, control.Audit) {
			t.Fatalf("crashAt=%d: final audit diverges from control: %d vs %d entries",
				crashAt, len(final.Audit), len(control.Audit))
		}
		if !reflect.DeepEqual(final.Vault, control.Vault) {
			t.Fatalf("crashAt=%d: final vault diverges from control", crashAt)
		}
		if !reflect.DeepEqual(final.Policy, control.Policy) {
			t.Fatalf("crashAt=%d: final policy diverges from control", crashAt)
		}
		if hits := fault.ScanForPlaintext(fs.DiskBytes(), secrets); len(hits) != 0 {
			t.Fatalf("crashAt=%d: plaintext on disk after resume: %v", crashAt, hits)
		}
	}
}

// TestChaosCrashDuringSnapshot sweeps the crash point across an explicit
// Snapshot call — covering the windows between snapshot write, rename,
// directory sync, segment rotation, and the compaction deletes (the
// "crash between snapshot write and WAL truncation" case).
func TestChaosCrashDuringSnapshot(t *testing.T) {
	const n = 9
	secrets := chaosSecrets()
	for crashAt := 0; ; crashAt++ {
		fs := fault.NewCrashFS(42)
		opts := testOpts(fs)
		opts.SegmentBytes = 200
		s := mustOpen(t, opts)
		for i := 1; i <= n; i++ {
			wait(t, s.Append(Audit(entry(i))))
		}
		wait(t, s.Append(Vault(chaosVault(1))))
		pre := fs.Ops()
		fs.CrashAfter(crashAt)
		err := s.Snapshot()
		if !fs.Crashed() {
			if err != nil {
				t.Fatalf("crashAt=%d: snapshot failed without crash: %v", crashAt, err)
			}
			if crashAt == 0 {
				t.Fatal("snapshot performed no filesystem operations")
			}
			_ = pre
			break // swept past the whole snapshot
		}
		fs.Restart()
		r, rerr := Open(opts)
		if rerr != nil {
			t.Fatalf("crashAt=%d: recovery after snapshot crash: %v", crashAt, rerr)
		}
		st := r.State()
		r.Close()
		if len(st.Audit) != n || len(st.Vault) != 1 {
			t.Fatalf("crashAt=%d: snapshot crash lost data: %d audit, %d vault",
				crashAt, len(st.Audit), len(st.Vault))
		}
		verifyPrefix(t, fmt.Sprintf("snapshot crashAt=%d", crashAt), st, acked{audit: n, vault: 1})
		if hits := fault.ScanForPlaintext(fs.DiskBytes(), secrets); len(hits) != 0 {
			t.Fatalf("crashAt=%d: plaintext after snapshot crash: %v", crashAt, hits)
		}
	}
}

// TestChaosTornTailRepairIdempotent forces a torn tail, then crashes
// recovery at every point of its repair sequence, proving the repair can
// be re-run from any intermediate disk state (the double-crash-during-
// recovery case in isolation).
func TestChaosTornTailRepairIdempotent(t *testing.T) {
	// Build a disk with a torn tail: crash mid-commit.
	build := func() *fault.CrashFS {
		fs := fault.NewCrashFS(7)
		s := mustOpen(t, testOpts(fs))
		for i := 1; i <= 5; i++ {
			wait(t, s.Append(Audit(entry(i))))
		}
		// Crash on the commit write of entry 6: the frame lands torn.
		fs.CrashAfter(1)
		s.Append(Audit(entry(6))).Wait(context.Background())
		fs.Restart()
		return fs
	}

	for crashAt := 0; ; crashAt++ {
		fs := build()
		fs.CrashAfter(crashAt)
		_, err := Open(testOpts(fs))
		if !fs.Crashed() {
			if err != nil {
				t.Fatalf("crashAt=%d: recovery failed without crash: %v", crashAt, err)
			}
			break
		}
		fs.Restart()
		r, rerr := Open(testOpts(fs))
		if rerr != nil {
			t.Fatalf("crashAt=%d: second recovery failed: %v", crashAt, rerr)
		}
		st := r.State()
		r.Close()
		if len(st.Audit) != 5 {
			t.Fatalf("crashAt=%d: %d entries after double-crash recovery, want 5", crashAt, len(st.Audit))
		}
		verifyPrefix(t, fmt.Sprintf("repair crashAt=%d", crashAt), st, acked{audit: 5})
	}
}

// TestChaosRecoveredMatchesAuditLog proves the recovered entries restore
// into audit.Log with identical anomaly detection to a log that never
// crashed (recovery idempotence at the audit layer; the node-level version
// lives in internal/node).
func TestChaosRecoveredMatchesAuditLog(t *testing.T) {
	fs := fault.NewCrashFS(11)
	s := mustOpen(t, chaosOpts(fs))
	runChaosWorkload(s, acked{})
	s.Close()

	control := audit.NewLog(nil)
	var entries []audit.Entry
	for i := 1; i <= chaosAudit; i++ {
		entries = append(entries, entry(i))
	}
	control.Restore(entries)

	r := mustOpen(t, chaosOpts(fs))
	recovered := audit.NewLog(nil)
	recovered.Restore(r.State().Audit)
	r.Close()

	if !reflect.DeepEqual(recovered.Entries(), control.Entries()) {
		t.Fatal("recovered audit entries diverge from control")
	}
	ca, ra := control.Anomalies(), recovered.Anomalies()
	if !reflect.DeepEqual(ca, ra) {
		t.Fatalf("anomaly rescans diverge: control %d, recovered %d", len(ca), len(ra))
	}
	if len(ca) == 0 {
		t.Fatal("workload produced no anomalies; the comparison is vacuous")
	}
}
