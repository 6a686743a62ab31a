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
