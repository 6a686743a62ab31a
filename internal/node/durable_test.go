package node

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"tinman/internal/audit"
	"tinman/internal/cor"
	"tinman/internal/fault"
	"tinman/internal/policy"
	"tinman/internal/store"
	"tinman/internal/taint"
)

// nodeTestSealer derives the vault sealing key once for the whole package
// (the KDF is deliberately slow).
var nodeTestSealer = func() *cor.Sealer {
	s, err := cor.NewSealer("node-store-pass", bytes.Repeat([]byte{0x5a}, cor.SaltLen))
	if err != nil {
		panic(err)
	}
	return s
}()

func openNodeStore(t testing.TB, fs *fault.CrashFS) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: "store", FS: fs, Sealer: nodeTestSealer})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return st
}

// testClock returns a deterministic clock; sharing one across the services
// of a crash-recover run keeps audit timestamps comparable with a control
// run that performs the identical operation sequence.
func testClock() func() time.Time {
	at := time.Unix(0, 0)
	return func() time.Time { at = at.Add(time.Second); return at }
}

// durableService builds a fresh Service attached to st.
func durableService(t testing.TB, st *store.Store, clock func() time.Time) *Service {
	t.Helper()
	svc := New(Options{Clock: clock, MalwareSeed: -1})
	if err := svc.AttachStore(context.Background(), st); err != nil {
		t.Fatalf("attach store: %v", err)
	}
	return svc
}

// auditWire renders the audit log in canonical persistence form.
func auditWire(t testing.TB, entries []audit.Entry) []string {
	t.Helper()
	out := make([]string, len(entries))
	for i, e := range entries {
		b, err := e.WireJSON()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

// TestDurableNodeRoundTrip drives every durable mutation class through the
// Service — registered cors, an offload that mints a derived cor,
// reseals, bind/revoke/restore — then kills the node and recovers a
// fresh Service from the store. The recovered node must present the same
// catalog, plaintexts, policy decisions, and audit trail, resume per-device
// sequences gap-free, and leave no cor plaintext on disk.
func TestDurableNodeRoundTrip(t *testing.T) {
	ctx := context.Background()
	fs := fault.NewCrashFS(7)
	st := openNodeStore(t, fs)
	svc := durableService(t, st, testClock())

	if _, err := svc.RegisterCor(ctx, "pw", "hunter2!", "bank password", "bank.com"); err != nil {
		t.Fatal(err)
	}
	gen, err := svc.RegisterCor(ctx, "gen", "shop-secret-12", "second cor", "shop.com")
	if err != nil {
		t.Fatal(err)
	}

	dev := newDeviceHalf(t, svc, "dev-1", "login", loginSrc)
	hash := dev.install(t, svc, loginSrc)
	if err := svc.BindApp("pw", hash); err != nil {
		t.Fatal(err)
	}
	// The offload mints a derived cor through the resolver's MaskID path.
	masked, err := dev.login(t, svc, "pw")
	if err != nil {
		t.Fatal(err)
	}
	if masked.CorID == "" {
		t.Fatal("login result not masked")
	}
	derived := svc.Cors.Get(masked.CorID)
	if derived == nil {
		t.Fatalf("derived cor %q not in store", masked.CorID)
	}
	resealOnce(t, svc, "dev-1", hash)
	resealOnce(t, svc, "dev-1", hash)
	if err := svc.Revoke("dev-2"); err != nil {
		t.Fatal(err)
	}

	wantCors := svc.Cors.Len()
	wantAudit := auditWire(t, svc.Audit.Entries())
	info, ok := svc.Shard("dev-1")
	if !ok || info.AuditSeq == 0 {
		t.Fatalf("dev-1 shard: %+v ok=%v", info, ok)
	}

	// Kill the node. Every acknowledged mutation must already be durable.
	fs.CrashNow()
	fs.Restart()

	st2 := openNodeStore(t, fs)
	svc2 := durableService(t, st2, testClock())

	if got := svc2.Cors.Len(); got != wantCors {
		t.Fatalf("recovered %d cors, want %d", got, wantCors)
	}
	for _, id := range []string{"pw", "gen", masked.CorID} {
		was, is := svc.Cors.Get(id), svc2.Cors.Get(id)
		if is == nil {
			t.Fatalf("cor %q lost in recovery", id)
		}
		if is.Plaintext != was.Plaintext || is.Bit != was.Bit || is.Placeholder != was.Placeholder {
			t.Fatalf("cor %q diverged: %+v vs %+v", id, is, was)
		}
	}
	if gotAudit := auditWire(t, svc2.Audit.Entries()); len(gotAudit) != len(wantAudit) {
		t.Fatalf("recovered %d audit entries, want %d", len(gotAudit), len(wantAudit))
	} else {
		for i := range wantAudit {
			if gotAudit[i] != wantAudit[i] {
				t.Fatalf("audit entry %d diverged:\n%s\n%s", i, gotAudit[i], wantAudit[i])
			}
		}
	}

	// Policy survives: the revocation still bites, the binding still allows.
	raw, _ := sessionState(t)
	if _, err := svc2.Reseal(ctx, ResealRequest{
		CorID: "pw", AppHash: hash, DeviceID: "dev-2", Domain: "bank.com", State: raw,
	}); !errors.Is(err, policy.ErrDenied) {
		t.Fatalf("revoked device after recovery: %v, want denial", err)
	}
	resealOnce(t, svc2, "dev-1", hash)

	// The per-device audit sequence resumes gap-free past the crash.
	entries := svc2.Audit.Entries()
	last := entries[len(entries)-1]
	if last.DeviceID != "dev-1" || last.DeviceSeq != info.AuditSeq+1 {
		t.Fatalf("post-recovery DeviceSeq = %d (device %s), want %d",
			last.DeviceSeq, last.DeviceID, info.AuditSeq+1)
	}

	// The whole policy document survives at its version: whitelists,
	// binding and revocation alike.
	if got, want := svc2.Policy.Stamp(), svc.Policy.Stamp(); got != want {
		t.Fatalf("recovered policy stamp %+v, want %+v", got, want)
	}
	if wl := svc2.Policy.Export().Whitelist["gen"]; !slices.Equal(wl, []string{"shop.com"}) {
		t.Fatalf("recovered whitelist of gen = %v", wl)
	}

	// No cor plaintext on disk — not the registered or offload-derived
	// secrets.
	secrets := []string{"hunter2!", gen.Plaintext, derived.Plaintext}
	if hits := fault.ScanForPlaintext(fs.DiskBytes(), secrets); len(hits) != 0 {
		t.Fatalf("cor plaintext on disk: %v", hits)
	}
}

// TestDurableNodeRecoveryIdempotent is the node-level recover → append →
// crash → recover-again check: the twice-crashed node's audit log and
// anomaly rescan must be identical to a control node that ran the same
// operations without ever crashing.
func TestDurableNodeRecoveryIdempotent(t *testing.T) {
	ctx := context.Background()

	// phase1 registers state and produces a burst of denials (anomaly
	// material); phase2 appends more work after the first recovery.
	phase1 := func(svc *Service) (hash string) {
		t.Helper()
		if _, err := svc.RegisterCor(ctx, "pw", "hunter2!", "bank password", "bank.com"); err != nil {
			t.Fatal(err)
		}
		dev := newDeviceHalf(t, svc, "dev-1", "login", loginSrc)
		hash = dev.install(t, svc, loginSrc)
		if err := svc.BindApp("pw", hash); err != nil {
			t.Fatal(err)
		}
		resealOnce(t, svc, "dev-1", hash)
		if err := svc.Revoke("dev-1"); err != nil {
			t.Fatal(err)
		}
		raw, _ := sessionState(t)
		for i := 0; i < 4; i++ {
			if _, err := svc.Reseal(ctx, ResealRequest{
				CorID: "pw", AppHash: hash, DeviceID: "dev-1", Domain: "bank.com", State: raw,
			}); !errors.Is(err, policy.ErrDenied) {
				t.Fatalf("revoked reseal %d: %v", i, err)
			}
		}
		return hash
	}
	phase2 := func(svc *Service, hash string) {
		t.Helper()
		if err := svc.Restore("dev-1"); err != nil {
			t.Fatal(err)
		}
		resealOnce(t, svc, "dev-1", hash)
		resealOnce(t, svc, "dev-1", hash)
	}

	// Control: never crashes. Note sessionState is rebuilt per phase in both
	// runs, so RSA jitter does not enter the audit trail.
	control := New(Options{Clock: testClock(), MalwareSeed: -1})
	hash := phase1(control)
	phase2(control, hash)

	// Crashed run: one shared clock across all recoveries, so the operation
	// sequence stamps identical times to the control run.
	fs := fault.NewCrashFS(11)
	clock := testClock()
	svc := durableService(t, openNodeStore(t, fs), clock)
	hash2 := phase1(svc)
	if hash2 != hash {
		t.Fatalf("app hash diverged: %s vs %s", hash2, hash)
	}
	fs.CrashNow()
	fs.Restart()

	svc = durableService(t, openNodeStore(t, fs), clock)
	phase2(svc, hash)
	fs.CrashNow()
	fs.Restart()

	svc = durableService(t, openNodeStore(t, fs), clock)

	wantLog, gotLog := auditWire(t, control.Audit.Entries()), auditWire(t, svc.Audit.Entries())
	if len(wantLog) != len(gotLog) {
		t.Fatalf("audit length %d, control %d", len(gotLog), len(wantLog))
	}
	for i := range wantLog {
		if wantLog[i] != gotLog[i] {
			t.Fatalf("audit entry %d diverged:\n got %s\nwant %s", i, gotLog[i], wantLog[i])
		}
	}
	want, got := control.Audit.Anomalies(), svc.Audit.Anomalies()
	if len(want) == 0 {
		t.Fatal("control produced no anomalies; comparison is vacuous")
	}
	if len(want) != len(got) {
		t.Fatalf("anomalies %d, control %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if !w.Time.Equal(g.Time) || w.DeviceID != g.DeviceID || w.CorID != g.CorID ||
			w.Denials != g.Denials || w.Window != g.Window {
			t.Fatalf("anomaly %d diverged: %+v vs %+v", i, g, w)
		}
	}
}

// TestDurableNodeCrashSweep kills the node at every filesystem operation
// of a reseal workload. After each crash the recovered audit log must be a
// bit-identical prefix of the fault-free control's log with a gap-free Seq,
// and the disk must never hold cor plaintext.
func TestDurableNodeCrashSweep(t *testing.T) {
	ctx := context.Background()
	const reseals = 6

	// Control run, fault-free.
	controlFS := fault.NewCrashFS(17)
	setup := func(fs *fault.CrashFS, clock func() time.Time) (*Service, string) {
		svc := durableService(t, openNodeStore(t, fs), clock)
		if _, err := svc.RegisterCor(ctx, "pw", "hunter2!", "bank password", "bank.com"); err != nil {
			t.Fatal(err)
		}
		dev := newDeviceHalf(t, svc, "dev-1", "login", loginSrc)
		hash := dev.install(t, svc, loginSrc)
		if err := svc.BindApp("pw", hash); err != nil {
			t.Fatal(err)
		}
		return svc, hash
	}
	raw, _ := sessionState(t)
	workload := func(svc *Service, hash string) error {
		for i := 0; i < reseals; i++ {
			if _, err := svc.Reseal(ctx, ResealRequest{
				CorID: "pw", AppHash: hash, DeviceID: "dev-1", Domain: "bank.com", State: raw,
			}); err != nil {
				return err
			}
		}
		return nil
	}
	control, hash := setup(controlFS, testClock())
	if err := workload(control, hash); err != nil {
		t.Fatal(err)
	}
	wantLog := auditWire(t, control.Audit.Entries())

	for crashAt := 0; ; crashAt++ {
		fs := fault.NewCrashFS(17)
		svc, h := setup(fs, testClock())
		fs.CrashAfter(crashAt)
		err := workload(svc, h)
		if !fs.Crashed() {
			if err != nil {
				t.Fatalf("crashAt=%d: workload failed without crash: %v", crashAt, err)
			}
			break // swept past the whole workload
		}
		fs.Restart()

		rec := durableService(t, openNodeStore(t, fs), testClock())
		gotLog := auditWire(t, rec.Audit.Entries())
		if len(gotLog) > len(wantLog) {
			t.Fatalf("crashAt=%d: recovered %d entries, control has %d", crashAt, len(gotLog), len(wantLog))
		}
		for i, e := range rec.Audit.Entries() {
			if e.Seq != uint64(i+1) {
				t.Fatalf("crashAt=%d: Seq gap at %d: %d", crashAt, i, e.Seq)
			}
			if gotLog[i] != wantLog[i] {
				t.Fatalf("crashAt=%d: entry %d diverged:\n got %s\nwant %s", crashAt, i, gotLog[i], wantLog[i])
			}
		}
		if hits := fault.ScanForPlaintext(fs.DiskBytes(), []string{"hunter2!"}); len(hits) != 0 {
			t.Fatalf("crashAt=%d: cor plaintext on disk: %v", crashAt, hits)
		}
	}
}

// TestDurableOffloadCrashSweep kills the node at every filesystem
// operation of a workload of offloads that mint derived cors, each followed
// by an injection and its payload replacement. After every crash the
// recovered audit log and vault must equal the fault-free control's state
// after a whole number of operations — the acknowledged ones, or those
// plus the one in flight, never part of one — with a gap-free Seq and no
// cor plaintext on disk. The store snapshots every three records, so
// crashes also land inside snapshot writes and log compaction, and each
// seed tears the unsynced tail at a different length.
func TestDurableOffloadCrashSweep(t *testing.T) {
	ctx := context.Background()
	const logins = 3
	raw, _ := sessionState(t)
	setup := func(fs *fault.CrashFS) (*Service, *deviceHalf) {
		st, err := store.Open(store.Options{Dir: "store", FS: fs, Sealer: nodeTestSealer, SnapshotEvery: 3})
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		svc := durableService(t, st, testClock())
		if _, err := svc.RegisterCor(ctx, "pw", "hunter2!", "bank password", "bank.com"); err != nil {
			t.Fatal(err)
		}
		dev := newDeviceHalf(t, svc, "dev-1", "login", loginSrc)
		if err := svc.BindApp("pw", dev.install(t, svc, loginSrc)); err != nil {
			t.Fatal(err)
		}
		return svc, dev
	}
	// workload runs the operations until the first error, calling done
	// after each acknowledged one, and returns how many were acknowledged.
	workload := func(svc *Service, dev *deviceHalf, done func()) (acked int) {
		for i := 0; i < logins; i++ {
			masked, err := dev.login(t, svc, "pw")
			if err != nil {
				return acked
			}
			acked++
			done()
			key := InjectionKey{ClientAddr: "10.0.0.2", ClientPort: uint16(40000 + i), ServerAddr: "203.0.113.5", ServerPort: 443}
			if err := svc.ArmInjection(ctx, InjectRequest{
				DeviceID: "dev-1", App: "login", CorID: masked.CorID, Domain: "bank.com", Key: key, State: raw,
			}); err != nil {
				return acked
			}
			acked++
			done()
			if _, err := svc.ReplacePayload(ctx, key, 0); err != nil {
				return acked
			}
			acked++
			done()
		}
		return acked
	}
	type state struct{ audit, vault []string }
	capture := func(svc *Service) state {
		var vault []string
		for _, r := range svc.Cors.List() {
			vault = append(vault, fmt.Sprintf("%s bit=%d class=%s %q", r.ID, r.Bit, r.Class, r.Plaintext))
		}
		return state{auditWire(t, svc.Audit.Entries()), vault}
	}

	// Control run, fault-free: states[k] is the node after k operations.
	control, dev := setup(fault.NewCrashFS(41))
	states := []state{capture(control)}
	if n := workload(control, dev, func() { states = append(states, capture(control)) }); n != 3*logins {
		t.Fatalf("control run acknowledged %d of %d operations", n, 3*logins)
	}
	secrets := []string{"hunter2!"}
	for _, r := range control.Cors.List() {
		if r.ID != "pw" {
			secrets = append(secrets, r.Plaintext)
		}
	}
	if len(secrets)-1 < logins {
		t.Fatalf("control minted %d derived cors in %d offloads", len(secrets)-1, logins)
	}

	for seed := int64(1); seed <= 4; seed++ {
		for crashAt := 0; ; crashAt++ {
			fs := fault.NewCrashFS(seed)
			svc, dev := setup(fs)
			fs.CrashAfter(crashAt)
			acked := workload(svc, dev, func() {})
			if !fs.Crashed() {
				if acked != 3*logins {
					t.Fatalf("seed %d crashAt=%d: operation %d failed without a crash", seed, crashAt, acked)
				}
				break // swept past the whole workload
			}
			fs.Restart()

			rec := durableService(t, openNodeStore(t, fs), testClock())
			got := capture(rec)
			whole := false
			for _, want := range states[acked:min(acked+2, len(states))] {
				if slices.Equal(got.audit, want.audit) && slices.Equal(got.vault, want.vault) {
					whole = true
				}
			}
			if !whole {
				next := states[min(acked+1, len(states)-1)]
				t.Fatalf("seed %d crashAt=%d: %d operations acknowledged; recovered %d audit entries and %d cors, "+
					"want the state after operation %d (%d entries, %d cors) or %d (%d entries, %d cors)",
					seed, crashAt, acked, len(got.audit), len(got.vault),
					acked, len(states[acked].audit), len(states[acked].vault),
					acked+1, len(next.audit), len(next.vault))
			}
			for i, e := range rec.Audit.Entries() {
				if e.Seq != uint64(i+1) {
					t.Fatalf("seed %d crashAt=%d: Seq gap at %d: %d", seed, crashAt, i, e.Seq)
				}
			}
			if hits := fault.ScanForPlaintext(fs.DiskBytes(), secrets); len(hits) != 0 {
				t.Fatalf("seed %d crashAt=%d: cor plaintext on disk: %v", seed, crashAt, hits)
			}
		}
	}
}

// TestRegisterCorIsOneBatch checks that a registration with a whitelist
// commits its vault record and its policy document as one group commit,
// across nearly as many registrations as a store's 64 taint bits allow.
func TestRegisterCorIsOneBatch(t *testing.T) {
	st := openNodeStore(t, fault.NewCrashFS(43))
	svc := durableService(t, st, testClock())
	for i := 0; i < 60; i++ {
		before := st.Stats()
		if _, err := svc.RegisterCor(context.Background(), fmt.Sprintf("cor-%d", i), "hunter2!", "", "bank.com"); err != nil {
			t.Fatal(err)
		}
		after := st.Stats()
		if b, r := after.Batches-before.Batches, after.Records-before.Records; b != 1 || r != 2 {
			t.Fatalf("registration %d took %d group commits for %d records, want 1 for 2", i, b, r)
		}
	}
}

// exportWithDerivedCor logs dev-1 in on an in-memory source node, which
// mints a derived cor, and detaches its shard. dst is a store-backed node
// on fs with the same registered cor, ready to import the export.
func exportWithDerivedCor(t *testing.T, fs *fault.CrashFS) (src, dst *Service, exp *ShardExport) {
	t.Helper()
	ctx := context.Background()
	src = New(Options{})
	dst = durableService(t, openNodeStore(t, fs), testClock())
	for _, svc := range []*Service{src, dst} {
		if _, err := svc.RegisterCor(ctx, "pw", "hunter2!", "pw", "bank.com"); err != nil {
			t.Fatal(err)
		}
	}
	dev := newDeviceHalf(t, src, "dev-1", "login", loginSrc)
	hash := dev.install(t, src, loginSrc)
	if err := src.BindApp("pw", hash); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.login(t, src, "pw"); err != nil {
		t.Fatal(err)
	}
	exp, err := src.DetachShard("dev-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.DerivedCors) == 0 {
		t.Fatal("export carries no derived cor")
	}
	return src, dst, exp
}

// TestImportShardNotDurableAttachesNothing imports a shard carrying a
// derived cor into a node whose store has failed. The import must fail as
// not durable, leave the device's shard unattached and drop the derived
// cor it minted, so the fleet's re-import on the source node leaves one
// member holding the device and its secrets.
func TestImportShardNotDurableAttachesNothing(t *testing.T) {
	ctx := context.Background()
	fs := fault.NewCrashFS(47)
	src, dst, exp := exportWithDerivedCor(t, fs)
	derivedID := exp.DerivedCors[0].ID

	fs.CrashNow()
	if err := dst.ImportShard(ctx, exp); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("import on a failed store: err = %v, want ErrNotDurable", err)
	}
	if _, ok := dst.Shard("dev-1"); ok {
		t.Fatal("a not-durable import left the shard attached")
	}
	if dst.Cors.Get(derivedID) != nil {
		t.Fatalf("a not-durable import left derived cor %s in memory", derivedID)
	}
	if dst.Cors.Get("pw") == nil {
		t.Fatal("a not-durable import dropped the registered parent cor")
	}
	if err := src.ImportShard(ctx, exp); err != nil {
		t.Fatalf("re-import on the source node: %v", err)
	}
}

// TestDurableRefusedImportLeavesNoSecret imports a shard whose export
// carries a derived cor and an app that does not assemble. The import must
// fail before it mints the derived cor: the refusing node holds no copy of
// the device's secret, in memory or on disk, and attaches no shard.
func TestDurableRefusedImportLeavesNoSecret(t *testing.T) {
	fs := fault.NewCrashFS(53)
	_, dst, exp := exportWithDerivedCor(t, fs)
	derivedID := exp.DerivedCors[0].ID
	exp.Apps = append(exp.Apps, AppExport{Name: "broken", Source: "class X\n  method m 0 1\n    bogus r0\n  end\nend"})

	if err := dst.ImportShard(context.Background(), exp); err == nil {
		t.Fatal("import of an app that does not assemble succeeded")
	}
	if rec := dst.Cors.Get(derivedID); rec != nil {
		t.Fatalf("refused import left derived cor %s in memory", derivedID)
	}
	if _, ok := dst.Shard("dev-1"); ok {
		t.Fatal("refused import attached the shard")
	}
	fs.CrashNow()
	fs.Restart()
	for _, r := range openNodeStore(t, fs).State().Vault {
		if r.ID == derivedID {
			t.Fatalf("refused import left derived cor %s in the vault", derivedID)
		}
	}
}

// TestDurableClassThroughDerivedCor sets a lineage's class through a
// derived cor's ID. SetClass reclassifies every cor of the taint bit, and
// the class must still hold for all of them after a restart, with the bit
// in the restricted mask that keeps server-only state out of DSM payloads.
func TestDurableClassThroughDerivedCor(t *testing.T) {
	ctx := context.Background()
	fs := fault.NewCrashFS(59)
	svc := durableService(t, openNodeStore(t, fs), testClock())
	parent, err := svc.RegisterCor(ctx, "pw", "hunter2!", "pw", "bank.com")
	if err != nil {
		t.Fatal(err)
	}
	dev := newDeviceHalf(t, svc, "dev-1", "login", loginSrc)
	hash := dev.install(t, svc, loginSrc)
	if err := svc.BindApp("pw", hash); err != nil {
		t.Fatal(err)
	}
	masked, err := dev.login(t, svc, "pw")
	if err != nil {
		t.Fatal(err)
	}
	if svc.Cors.Get(masked.CorID) == nil {
		t.Fatalf("login minted no derived cor (masked %q)", masked.CorID)
	}
	if err := svc.SetCorClass(ctx, masked.CorID, cor.ClassServerOnly); err != nil {
		t.Fatal(err)
	}

	fs.CrashNow()
	fs.Restart()
	svc2 := durableService(t, openNodeStore(t, fs), testClock())
	for _, id := range []string{"pw", masked.CorID} {
		if got := svc2.Cors.Class(id); got != cor.ClassServerOnly {
			t.Errorf("recovered class of %s = %s, want %s", id, got, cor.ClassServerOnly)
		}
	}
	if mask := svc2.Cors.RestrictedMask(); !mask.Has(taint.Bit(parent.Bit)) {
		t.Errorf("recovered restricted mask %v lacks the lineage's bit %d", mask, parent.Bit)
	}
}

// TestDurablePolicyCrashSweep kills the node at every filesystem operation
// of a sequence that exercises each policy write — RegisterCor with a
// whitelist, BindApp, Revoke, InstallPolicy, Restore. After each crash the
// recovered document and stamp must be those of the last acknowledged
// write or of the write in flight: never an earlier write's, never a mix.
// A recovered cor always has its whitelist, and no plaintext is on disk.
// The store snapshots every two records, so crashes also land inside
// snapshot writes and log compaction.
func TestDurablePolicyCrashSweep(t *testing.T) {
	ctx := context.Background()
	open := func(fs *fault.CrashFS) *Service {
		st, err := store.Open(store.Options{Dir: "store", FS: fs, Sealer: nodeTestSealer, SnapshotEvery: 2})
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		return durableService(t, st, testClock())
	}
	writes := []func(*Service) error{
		func(svc *Service) error {
			_, err := svc.RegisterCor(ctx, "pw", "hunter2!", "bank password", "bank.com")
			return err
		},
		func(svc *Service) error { return svc.BindApp("pw", "app-1") },
		func(svc *Service) error { return svc.Revoke("dev-1") },
		func(svc *Service) error {
			doc := svc.Policy.Export()
			doc.Version = 0
			doc.AllowDomains("pw", []string{"bank.com", "m.bank.com"})
			doc.Windows = map[string]policy.Window{"pw": {From: 6, To: 22}}
			_, err := svc.InstallPolicy(ctx, doc)
			return err
		},
		func(svc *Service) error { return svc.Restore("dev-1") },
	}
	type state struct {
		doc   *policy.Snapshot
		stamp policy.Stamp
	}
	capture := func(svc *Service) state { return state{svc.Policy.Export(), svc.Policy.Stamp()} }

	// Control run, fault-free: states[i] is the policy after i writes.
	control := open(fault.NewCrashFS(29))
	states := []state{capture(control)}
	for i, w := range writes {
		if err := w(control); err != nil {
			t.Fatalf("control write %d: %v", i, err)
		}
		states = append(states, capture(control))
	}
	for i := 1; i < len(states); i++ {
		if states[i].stamp.Hash == states[i-1].stamp.Hash {
			t.Fatalf("write %d left the document unchanged; the sweep could not tell them apart", i)
		}
	}

	// Each seed tears the unsynced tail at a different length.
	for seed := int64(1); seed <= 8; seed++ {
		for crashAt := 0; ; crashAt++ {
			fs := fault.NewCrashFS(seed)
			svc := open(fs)
			fs.CrashAfter(crashAt)
			acked := 0
			for _, w := range writes {
				if w(svc) != nil {
					break
				}
				acked++
			}
			if !fs.Crashed() {
				if acked != len(writes) {
					t.Fatalf("seed %d crashAt=%d: write %d failed without a crash", seed, crashAt, acked)
				}
				break // swept past the whole sequence
			}
			fs.Restart()

			rec := open(fs)
			got := capture(rec)
			ok := false
			for _, want := range states[acked:min(acked+2, len(states))] {
				if got.stamp == want.stamp && reflect.DeepEqual(got.doc, want.doc) {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("seed %d crashAt=%d: %d writes acknowledged, recovered v%d %+v; want the policy after write %d or %d",
					seed, crashAt, acked, got.stamp.Version, got.doc, acked, acked+1)
			}
			if rec.Cors.Get("pw") != nil && got.doc.Whitelist["pw"] == nil {
				t.Fatalf("seed %d crashAt=%d: cor pw recovered without its whitelist", seed, crashAt)
			}
			if hits := fault.ScanForPlaintext(fs.DiskBytes(), []string{"hunter2!"}); len(hits) != 0 {
				t.Fatalf("seed %d crashAt=%d: cor plaintext on disk: %v", seed, crashAt, hits)
			}
		}
	}
}

// TestConcurrentPolicyWritersDurable runs writers that each bind a distinct
// app hash at once on a store-backed node. Every binding must be enforced
// afterwards and, because the node logs documents in install order, every
// binding must also be in the document a restart recovers.
func TestConcurrentPolicyWritersDurable(t *testing.T) {
	fs := fault.NewCrashFS(31)
	svc := durableService(t, openNodeStore(t, fs), testClock())
	if _, err := svc.RegisterCor(context.Background(), "pw", "hunter2!", "bank password", "bank.com"); err != nil {
		t.Fatal(err)
	}
	const writers = 8
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := svc.BindApp("pw", fmt.Sprintf("app-%d", i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	fs.CrashNow()
	fs.Restart()
	rec := durableService(t, openNodeStore(t, fs), testClock())
	for name, s := range map[string]*Service{"live": svc, "recovered": rec} {
		if got := s.Policy.Export().Bindings["pw"]; len(got) != writers {
			t.Fatalf("%s node binds %v, want all %d writers' hashes", name, got, writers)
		}
		if v := s.Policy.Version(); v != 1+writers {
			t.Fatalf("%s node at v%d, want v%d", name, v, 1+writers)
		}
	}
}
