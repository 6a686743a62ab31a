package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"tinman/internal/fault"
	"tinman/internal/netsim"
	"tinman/internal/node"
	"tinman/internal/vm"
)

// Chaos suite: deterministic fault-injection scenarios for the §5.4
// availability story. Every scenario is a scripted event schedule on the
// virtual clock, so a failing run replays bit for bit from its seed.
//
// The invariants under test:
//   - no hangs: every control round trip is deadline-bounded;
//   - at-most-once: a retried request never re-executes on the node, so
//     the audit log of a faulty run equals that of a fault-free run;
//   - degraded mode: with the node gone, untainted work is untouched,
//     cor-touching work fails fast with node.ErrNodeUnavailable, and
//     service resumes by itself once the node returns.

// chaosFaults is the suite's aggressive-retry tuning: short deadlines so
// scenarios stay small, a high breaker threshold so retry scenarios are
// not cut short by degraded mode (the degraded-mode test lowers it).
func chaosFaults() FaultOptions {
	return FaultOptions{
		RequestTimeout:   time.Second,
		ConnectTimeout:   2 * time.Second,
		MaxAttempts:      6,
		RetryBackoffBase: 250 * time.Millisecond,
		RetryBackoffMax:  2 * time.Second,
		BreakerThreshold: 10,
		BreakerCooldown:  5 * time.Second,
	}
}

// newChaosWorld builds a TinMan world with one registered+bound cor and
// the tiny app installed, ready to offload.
func newChaosWorld(t *testing.T, cfg Config) (*World, *App, vm.Value) {
	t.Helper()
	if cfg.Profile.Name == "" {
		cfg.Profile = netsim.WiFi
	}
	cfg.TinManEnabled = true
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Node.RegisterCor("pw", "secret12", "test pw"); err != nil {
		t.Fatal(err)
	}
	if err := w.Device.RefreshCatalog(); err != nil {
		t.Fatal(err)
	}
	app, err := w.Device.InstallApp("tiny", tinyApp, 8)
	if err != nil {
		t.Fatal(err)
	}
	w.Node.BindApp("pw", app.Hash())
	pw, err := w.Device.CorArg(app, "pw")
	if err != nil {
		t.Fatal(err)
	}
	return w, app, pw
}

// auditTuples projects the audit log onto its order- and
// content-significant fields (Seq/Time vary with retry timing; the
// executed operations must not).
func auditTuples(w *World) []string {
	entries := w.Node.Svc.Audit.Entries()
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		out = append(out, fmt.Sprintf("%s|%s|%s|%s|%s|%s",
			e.AppHash, e.CorID, e.DeviceID, e.Domain, e.Outcome, e.Detail))
	}
	return out
}

// requireGapFreeSeq asserts the audit sequence numbers are 1..n with no
// holes — a duplicated or dropped entry would show up here.
func requireGapFreeSeq(t *testing.T, w *World) {
	t.Helper()
	for i, e := range w.Node.Svc.Audit.Entries() {
		if e.Seq != uint64(i+1) {
			t.Fatalf("audit Seq gap: entry %d has Seq %d", i, e.Seq)
		}
	}
}

// requireSameAudit asserts a faulty run executed exactly the operations a
// fault-free control run did — the at-most-once guarantee made observable.
func requireSameAudit(t *testing.T, faulty, control *World) {
	t.Helper()
	got, want := auditTuples(faulty), auditTuples(control)
	if len(got) != len(want) {
		t.Fatalf("audit length %d under faults, %d in control:\nfaulty: %v\ncontrol: %v",
			len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("audit entry %d differs:\nfaulty:  %s\ncontrol: %s", i, got[i], want[i])
		}
	}
	requireGapFreeSeq(t, faulty)
}

// runTouch runs the cor-touching method once and checks the standard
// success conditions.
func runTouch(t *testing.T, w *World, app *App, pw vm.Value) {
	t.Helper()
	res, err := app.Run("Tiny", "touch", pw)
	if err != nil {
		t.Fatalf("touch under faults: %v", err)
	}
	if res.Int == int64('s') && res.Tag.Empty() {
		t.Fatal("plaintext first byte returned to device untainted")
	}
	if app.Report.Migrations == 0 {
		t.Fatal("no offload happened")
	}
	// The device must still hold only the placeholder.
	if pw.Ref != nil && pw.Ref.Str == "secret12" {
		t.Fatal("device holds the plaintext cor")
	}
}

// TestChaosPartitionDuringOffload cuts the device↔node link just as an
// offload starts and heals it 1.5 s later: the app must ride the retry
// path to completion with no hang, no duplicate execution, and no
// placeholder leakage.
func TestChaosPartitionDuringOffload(t *testing.T) {
	control, capp, cpw := newChaosWorld(t, Config{Seed: 7, Fault: chaosFaults()})
	runTouch(t, control, capp, cpw)

	w, app, pw := newChaosWorld(t, Config{Seed: 7, Fault: chaosFaults()})
	now := w.Net.Now()
	w.DeviceNodeLink().PartitionBetween(now, now+1500*time.Millisecond)
	runTouch(t, w, app, pw)

	if w.Device.ControlRetries() == 0 {
		t.Fatal("the partition never bit: no control retries recorded")
	}
	if w.Device.Degraded() {
		t.Fatal("device stuck in degraded mode after a successful run")
	}
	requireSameAudit(t, w, control)
}

// TestChaosPartitionDeterminism replays the partition scenario twice from
// the same seed and demands identical histories: same audit log, same
// retry count, same final virtual clock.
func TestChaosPartitionDeterminism(t *testing.T) {
	run := func() (*World, uint64) {
		w, app, pw := newChaosWorld(t, Config{Seed: 11, Fault: chaosFaults()})
		now := w.Net.Now()
		w.DeviceNodeLink().PartitionBetween(now, now+1500*time.Millisecond)
		runTouch(t, w, app, pw)
		return w, w.Device.ControlRetries()
	}
	w1, r1 := run()
	w2, r2 := run()
	if r1 != r2 {
		t.Fatalf("retry counts diverged: %d vs %d", r1, r2)
	}
	if w1.Net.Now() != w2.Net.Now() {
		t.Fatalf("final clocks diverged: %v vs %v", w1.Net.Now(), w2.Net.Now())
	}
	requireSameAudit(t, w1, w2)
}

// TestChaosSlowNodeReplaysNotReexecutes forces every first attempt to time
// out (the node's reply takes longer than the request deadline) and checks
// the retry binds to the already-running execution instead of starting a
// second one: exactly one offload, an audit log identical to an unhurried
// control run.
func TestChaosSlowNodeReplaysNotReexecutes(t *testing.T) {
	// Inflate serialization cost so the node's migration reply (~10 bytes
	// of dirty state → ≈60 ms compute) is scheduled past the 40 ms request
	// deadline; retries (reconnect + tagged replay) must pick up the
	// original execution's reply. 40 ms still clears the catalog/install
	// round trips (~12 ms on Wi-Fi).
	cost := DefaultCostModel()
	cost.SerializeNsPerByte = 6_000_000
	slow := chaosFaults()
	slow.RequestTimeout = 40 * time.Millisecond
	slow.RetryBackoffBase = 50 * time.Millisecond

	patient := chaosFaults()
	patient.RequestTimeout = time.Minute
	control, capp, cpw := newChaosWorld(t, Config{Seed: 13, Cost: cost, Fault: patient})
	runTouch(t, control, capp, cpw)

	w, app, pw := newChaosWorld(t, Config{Seed: 13, Cost: cost, Fault: slow})
	runTouch(t, w, app, pw)

	if w.Device.ControlRetries() == 0 {
		t.Fatal("deadline never expired: the scenario tested nothing")
	}
	if app.Report.Migrations != capp.Report.Migrations {
		t.Fatalf("faulty run migrated %d times, control %d", app.Report.Migrations, capp.Report.Migrations)
	}
	requireSameAudit(t, w, control)
}

// TestChaosReplayWaitsForModeledCompletion retries a slow offload while the
// node is still computing it: the retries reach the replay window long
// before the original's modeled completion, and their answer must not
// arrive any earlier than that — a replay skips re-execution, not the
// node's work. The offload can therefore take no less virtual time than in
// an unhurried control run, up to link jitter (an early replay would win
// back most of the node's ~600 ms).
func TestChaosReplayWaitsForModeledCompletion(t *testing.T) {
	// ~10 bytes of dirty reply state at 60 ms/byte keeps the node busy for
	// ~600 ms; every attempt gives up after 100 ms.
	cost := DefaultCostModel()
	cost.SerializeNsPerByte = 60_000_000
	hurried := chaosFaults()
	hurried.RequestTimeout = 100 * time.Millisecond
	hurried.RetryBackoffBase = 50 * time.Millisecond
	hurried.RetryBackoffMax = 200 * time.Millisecond
	hurried.MaxAttempts = 12
	patient := chaosFaults()
	patient.RequestTimeout = time.Minute

	control, capp, cpw := newChaosWorld(t, Config{Seed: 43, Cost: cost, Fault: patient})
	runTouch(t, control, capp, cpw)
	w, app, pw := newChaosWorld(t, Config{Seed: 43, Cost: cost, Fault: hurried})
	runTouch(t, w, app, pw)

	if w.Device.ControlRetries() == 0 {
		t.Fatal("no attempt timed out: the scenario tested nothing")
	}
	if early := capp.Report.DSMTime - app.Report.DSMTime; early > 50*time.Millisecond {
		t.Fatalf("retried offload finished %v before the unhurried run: a replay beat the node's modeled work", early)
	}
	requireSameAudit(t, w, control)
}

// TestChaosNodeRestartMidOffload reboots the trusted node while an offload
// is in flight: host down at the offload's start, back 1.2 s later with
// all TCP state gone. The device must reconnect and complete.
func TestChaosNodeRestartMidOffload(t *testing.T) {
	control, capp, cpw := newChaosWorld(t, Config{Seed: 17, Fault: chaosFaults()})
	runTouch(t, control, capp, cpw)

	w, app, pw := newChaosWorld(t, Config{Seed: 17, Fault: chaosFaults()})
	now := w.Net.Now()
	w.Net.ScheduleAt(now, w.CrashNode)
	w.Net.ScheduleAt(now+1200*time.Millisecond, w.RestartNode)
	runTouch(t, w, app, pw)

	if w.Device.ControlRetries() == 0 {
		t.Fatal("the restart never bit: no control retries recorded")
	}
	requireSameAudit(t, w, control)
}

// TestChaosFlappingThreeG runs the cor-touching app over a 3G link that
// flaps down/up repeatedly from the start of the run — the paper's
// worst-case mobile environment. The run must complete without hanging
// and without duplicate executions.
func TestChaosFlappingThreeG(t *testing.T) {
	cfg := func() Config {
		return Config{Seed: 19, Profile: netsim.ThreeG, Fault: chaosFaults()}
	}
	control, capp, cpw := newChaosWorld(t, cfg())
	runTouch(t, control, capp, cpw)

	w, app, pw := newChaosWorld(t, cfg())
	now := w.Net.Now()
	// 3 cycles: 700 ms down, 900 ms up.
	w.DeviceNodeLink().Flap(now, 700*time.Millisecond, 900*time.Millisecond, 3)
	runTouch(t, w, app, pw)

	if w.Device.ControlRetries() == 0 {
		t.Fatal("the flapping link never bit: no control retries recorded")
	}
	requireSameAudit(t, w, control)
}

// TestChaosDegradedMode is the §5.4 acceptance scenario: with the node
// gone, untainted work runs exactly as before, cor-touching work fails
// fast with node.ErrNodeUnavailable once the breaker opens (no retry
// storm, no packets, no burned time), and the device resumes on its own
// after the node returns and the cooldown elapses.
func TestChaosDegradedMode(t *testing.T) {
	f := chaosFaults()
	f.RequestTimeout = 200 * time.Millisecond
	f.ConnectTimeout = 200 * time.Millisecond
	f.MaxAttempts = 2
	f.BreakerThreshold = 2
	f.BreakerCooldown = 5 * time.Second
	w, app, pw := newChaosWorld(t, Config{Seed: 23, Fault: f})

	w.CrashNode()

	// Untainted execution proceeds normally with zero node involvement.
	res, err := app.Run("Tiny", "double", vm.IntVal(21))
	if err != nil || res.Int != 42 {
		t.Fatalf("untainted run with node down: res=%v err=%v", res, err)
	}
	if app.Report.Migrations != 0 {
		t.Fatal("untainted run migrated")
	}

	// The first cor access eats the retry budget, opens the breaker, and
	// surfaces the typed error.
	if _, err := app.Run("Tiny", "touch", pw); !errors.Is(err, node.ErrNodeUnavailable) {
		t.Fatalf("cor access with node down: %v, want node.ErrNodeUnavailable", err)
	}
	if !w.Device.Degraded() {
		t.Fatal("device not in degraded mode after breaker-opening failures")
	}

	// Open breaker: cor accesses fail fast — no packets toward the node, no
	// retry-storm time burned, error still typed.
	sentBefore := w.Device.Host.Sent
	timeBefore := w.Net.Now()
	for i := 0; i < 5; i++ {
		if _, err := app.Run("Tiny", "touch", pw); !errors.Is(err, node.ErrNodeUnavailable) {
			t.Fatalf("fast-fail cor access %d: %v, want node.ErrNodeUnavailable", i, err)
		}
	}
	if d := w.Device.Host.Sent - sentBefore; d != 0 {
		t.Fatalf("open breaker still sent %d packets", d)
	}
	// Each run still does its local work (VM instructions, migration
	// serialization ≈ 2 ms) before hitting the breaker, but nothing on the
	// scale of a timeout or backoff wait may occur.
	if d := w.Net.Now() - timeBefore; d > f.RequestTimeout {
		t.Fatalf("open breaker burned %v of virtual time on 5 failed accesses", d)
	}
	// Untainted work is still fine mid-degradation.
	if res, err := app.Run("Tiny", "double", vm.IntVal(4)); err != nil || res.Int != 8 {
		t.Fatalf("untainted run while degraded: res=%v err=%v", res, err)
	}

	// Node returns; after the cooldown the next cor access probes, succeeds
	// and closes the breaker — resumption needs no manual reset.
	w.RestartNode()
	w.Net.RunFor(f.BreakerCooldown + time.Second)
	runTouch(t, w, app, pw)
	if w.Device.Degraded() {
		t.Fatal("device still degraded after successful resumption")
	}
	requireGapFreeSeq(t, w)

	// The placeholder never left: degraded mode must not have leaked
	// anything the device did not already have.
	if pw.Ref == nil || pw.Ref.Str == "secret12" {
		t.Fatal("device holds plaintext after the chaos run")
	}
}

// TestChaosDropWindowHeals drops a burst of packets mid-offload via the
// drop-N-then-heal fault and relies on TCP retransmission (not the
// device-level retry path) to carry the request through.
func TestChaosDropWindowHeals(t *testing.T) {
	control, capp, cpw := newChaosWorld(t, Config{Seed: 29, Fault: chaosFaults()})
	runTouch(t, control, capp, cpw)

	w, app, pw := newChaosWorld(t, Config{Seed: 29, Fault: chaosFaults()})
	w.DeviceNodeLink().DropNext(3)
	runTouch(t, w, app, pw)
	requireSameAudit(t, w, control)
}

// TestChaosBreakerStateExposed pins Degraded()'s mapping onto breaker
// states so monitoring callers can rely on it.
func TestChaosBreakerStateExposed(t *testing.T) {
	w, _, _ := newChaosWorld(t, Config{Seed: 31, Fault: chaosFaults()})
	if w.Device.Degraded() {
		t.Fatal("fresh device reports degraded")
	}
	if w.Device.breaker.State() != fault.BreakerClosed {
		t.Fatalf("fresh breaker state = %v", w.Device.breaker.State())
	}
}

// slowTouchApp burns a caller-chosen amount of device compute before its
// first tainted access, opening a wide window between the speculative
// warm-up stream (done within a few RTTs of Run) and the offload trigger.
const slowTouchApp = `
class Slow
  method work 1 6
    const r1, 0
  loop:
    ifge r1, r0, done
    const r3, 1
    add r1, r1, r3
    goto loop
  done:
    return r1
  end
  method slowTouch 2 6
    invoke r2, Slow.work, r1
    const r3, 0
    charat r4, r0, r3
    return r4
  end
end`

// TestChaosNodeRestartMidWarmup reboots the node while the warm-up stream
// is in flight. The stream dies unacked, so the device must abandon the
// speculation and complete the login over the cold full-snapshot path —
// with an audit log identical to an unfaulted (warm) control run, since
// speculation may never change which operations execute.
func TestChaosNodeRestartMidWarmup(t *testing.T) {
	control, capp, cpw := newChaosWorld(t, Config{Seed: 37, Fault: chaosFaults()})
	runTouch(t, control, capp, cpw)
	// Sanity: the control run really rode the warm path, so the faulty run
	// below exercises a genuinely different data path.
	if capp.Report.WarmHits != 1 || capp.Report.InitBytes != 0 {
		t.Fatalf("control run not warm: %+v", capp.Report)
	}

	w, app, pw := newChaosWorld(t, Config{Seed: 37, Fault: chaosFaults()})
	now := w.Net.Now()
	w.Net.ScheduleAt(now, w.CrashNode)
	w.Net.ScheduleAt(now+1200*time.Millisecond, w.RestartNode)
	runTouch(t, w, app, pw)

	if w.Device.ControlRetries() == 0 {
		t.Fatal("the restart never bit: no control retries recorded")
	}
	if app.Report.WarmHits != 0 {
		t.Fatalf("warm hit through a crashed node: %+v", app.Report)
	}
	if app.Report.InitBytes == 0 {
		t.Fatal("cold fallback shipped no full snapshot")
	}
	requireSameAudit(t, w, control)
}

// TestChaosWarmMissFallsBackToFullResend forces the node to lose its warm
// state after the device's stream completed but before the trigger (a
// shard detach/import round trip — the fleet drain path — drops warm
// epochs by design). The trigger-time warm migration must come back as a
// warm miss and the device's in-protocol fallback — reset, recapture the
// full snapshot, resend under a fresh request — must complete the run.
func TestChaosWarmMissFallsBackToFullResend(t *testing.T) {
	w, _, _ := newChaosWorld(t, Config{Seed: 41, Fault: chaosFaults()})
	app, err := w.Device.InstallApp("slow", slowTouchApp, 8)
	if err != nil {
		t.Fatal(err)
	}
	w.Node.BindApp("pw", app.Hash())
	pw, err := w.Device.CorArg(app, "pw")
	if err != nil {
		t.Fatal(err)
	}

	// 50k loop iterations ≈ 200k instructions ≈ 160 ms of device compute
	// before the trigger; the warm-up stream settles within ~10 ms. Drop
	// the node's warm state squarely between the two.
	now := w.Net.Now()
	w.Net.ScheduleAt(now+80*time.Millisecond, func() {
		exp, derr := w.Node.Svc.DetachShard(w.Device.ID)
		if derr != nil {
			t.Errorf("detach mid-run: %v", derr)
			return
		}
		if ierr := w.Node.Svc.ImportShard(context.Background(), exp); ierr != nil {
			t.Errorf("re-import mid-run: %v", ierr)
		}
	})

	res, err := app.Run("Slow", "slowTouch", pw, vm.IntVal(50000))
	if err != nil {
		t.Fatalf("slowTouch across a warm miss: %v", err)
	}
	if res.Int == int64('s') && res.Tag.Empty() {
		t.Fatal("plaintext first byte returned to device untainted")
	}
	if app.Report.WarmMisses != 1 || app.Report.WarmHits != 0 {
		t.Fatalf("warm miss not taken: %+v", app.Report)
	}
	if app.Report.WarmupBytes == 0 {
		t.Fatal("no warm-up stream recorded; the scenario tested nothing")
	}
	if app.Report.InitBytes == 0 {
		t.Fatal("fallback shipped no full snapshot")
	}
	requireGapFreeSeq(t, w)
}
