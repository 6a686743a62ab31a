package node

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"

	"tinman/internal/audit"
)

// resealOnce drives one Reseal for the device so its shard caches a parsed
// session state.
func resealOnce(t testing.TB, svc *Service, deviceID, appHash string) {
	t.Helper()
	raw, _ := sessionState(t)
	out, err := svc.Reseal(context.Background(), ResealRequest{
		CorID: "pw", AppHash: appHash, DeviceID: deviceID,
		Domain: "bank.com", State: raw,
	})
	if err != nil {
		t.Fatalf("reseal: %v", err)
	}
	if len(out) == 0 {
		t.Fatal("empty resealed record")
	}
}

// TestShardDetachEvictsStateCache is the regression test for the state-cache
// leak: before sharding, parsed session states for departed devices lived in
// one Service-global cache forever. Now they live in the shard and vanish
// with it on detach.
func TestShardDetachEvictsStateCache(t *testing.T) {
	ctx := context.Background()
	svc := New(Options{})
	if _, err := svc.RegisterCor(ctx, "pw", "hunter2!", "pw", "bank.com"); err != nil {
		t.Fatal(err)
	}
	dev := newDeviceHalf(t, svc, "dev-1", "login", loginSrc)
	hash := dev.install(t, svc, loginSrc)
	svc.BindApp("pw", hash)

	resealOnce(t, svc, "dev-1", hash)
	info, ok := svc.Shard("dev-1")
	if !ok || info.CachedStates == 0 {
		t.Fatalf("expected cached session state, got %+v ok=%v", info, ok)
	}

	if _, err := svc.DetachShard("dev-1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.Shard("dev-1"); ok {
		t.Fatal("shard still present after detach")
	}
	// A returning device starts from a fresh shard: no stale cache entries.
	svc.AttachShard("dev-1", 0)
	info, ok = svc.Shard("dev-1")
	if !ok || info.CachedStates != 0 {
		t.Fatalf("fresh shard after detach: %+v ok=%v", info, ok)
	}
}

// TestShardDrainRefusesNewWork checks the Draining phase: in-flight work is
// unaffected, new per-device operations fail with ErrShardDraining. A
// payload replacement on a draining shard leaves its injection armed, so
// the injection moves with the shard's export.
func TestShardDrainRefusesNewWork(t *testing.T) {
	ctx := context.Background()
	svc := New(Options{})
	if _, err := svc.RegisterCor(ctx, "pw", "hunter2!", "pw", "bank.com"); err != nil {
		t.Fatal(err)
	}
	dev := newDeviceHalf(t, svc, "dev-1", "login", loginSrc)
	hash := dev.install(t, svc, loginSrc)
	svc.BindApp("pw", hash)
	state, _ := sessionState(t)
	key := InjectionKey{ClientAddr: "10.0.0.2", ClientPort: 40000, ServerAddr: "203.0.113.5", ServerPort: 443}
	if err := svc.ArmInjection(ctx, InjectRequest{
		DeviceID: "dev-1", App: "login", CorID: "pw", Domain: "bank.com", Key: key, State: state,
	}); err != nil {
		t.Fatal(err)
	}

	svc.BeginDrain("dev-1")
	if _, err := svc.ReplacePayload(ctx, key, 0); !errors.Is(err, ErrShardDraining) {
		t.Fatalf("payload replacement on draining shard: err = %v, want ErrShardDraining", err)
	}
	if _, err := dev.login(t, svc, "pw"); !errors.Is(err, ErrShardDraining) {
		t.Fatalf("offload on draining shard: err = %v, want ErrShardDraining", err)
	}
	raw, _ := sessionState(t)
	if _, err := svc.Reseal(ctx, ResealRequest{
		CorID: "pw", AppHash: hash, DeviceID: "dev-1", Domain: "bank.com", State: raw,
	}); !errors.Is(err, ErrShardDraining) {
		t.Fatalf("reseal on draining shard: err = %v, want ErrShardDraining", err)
	}
	exp, err := svc.DetachShard("dev-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Injections) != 1 || exp.Injections[0].Key != key {
		t.Fatalf("export carries injections %+v, want the armed one", exp.Injections)
	}
}

// TestShardExportImportRoundTrip moves a live device between two Services
// and checks the importing node resumes everything: hosted app, derived
// cors (with plaintext), armed injection, and the derived-ID counter.
func TestShardExportImportRoundTrip(t *testing.T) {
	ctx := context.Background()
	src := New(Options{})
	dst := New(Options{})
	// Registered cors are replicated fleet-wide by the control plane; model
	// that by registering the parent on both nodes.
	for _, svc := range []*Service{src, dst} {
		if _, err := svc.RegisterCor(ctx, "pw", "hunter2!", "pw", "bank.com"); err != nil {
			t.Fatal(err)
		}
	}

	dev := newDeviceHalf(t, src, "dev-1", "login", loginSrc)
	hash := dev.install(t, src, loginSrc)
	src.BindApp("pw", hash)
	dst.BindApp("pw", hash)

	// Mint a derived cor on the source node.
	req, err := dev.login(t, src, "pw")
	if err != nil {
		t.Fatal(err)
	}
	if src.Cors.Get(req.CorID) == nil {
		t.Fatalf("derived cor %q not in source vault", req.CorID)
	}

	// Arm a one-shot injection on the source node.
	raw, origin := sessionState(t)
	key := InjectionKey{ClientAddr: "10.0.0.2", ClientPort: 4242, ServerAddr: "93.184.216.34", ServerPort: 443}
	if err := src.ArmInjection(ctx, InjectRequest{
		DeviceID: "dev-1", App: "login", CorID: "pw", Domain: "bank.com",
		Key: key, State: raw,
	}); err != nil {
		t.Fatal(err)
	}

	exp, err := src.DetachShard("dev-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Apps) != 1 || len(exp.Injections) != 1 || len(exp.DerivedCors) == 0 {
		t.Fatalf("export = %+v", exp)
	}
	if err := dst.ImportShard(ctx, exp); err != nil {
		t.Fatal(err)
	}
	// The source node no longer serves the device.
	if _, err := src.Offload(ctx, "dev-1", "login", nil); !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("source offload after detach: %v", err)
	}

	// Derived cor moved with its plaintext.
	moved := dst.Cors.Get(req.CorID)
	if moved == nil {
		t.Fatalf("derived cor %q lost in handoff", req.CorID)
	}
	if want := src.Cors.Get(req.CorID); want != nil && moved.Plaintext != want.Plaintext {
		t.Fatal("derived cor plaintext diverged across handoff")
	}

	// The armed injection fires on the destination node.
	sealed, err := dst.ReplacePayload(ctx, key, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, plain, _, err := origin.Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if string(plain) != "hunter2!" {
		t.Fatalf("injected payload = %q", plain)
	}

	// The device resumes offloading against the destination node. DSM state
	// re-warms from scratch (the importer re-installed the app), so the
	// device side starts a fresh endpoint — the same reset path a failed
	// offload takes.
	dev2 := newDeviceHalf(t, dst, "dev-1", "login", loginSrc)
	req2, err := dev2.login(t, dst, "pw")
	if err != nil {
		t.Fatalf("offload after import: %v", err)
	}
	// The derived-ID counter resumed: no collision with the pre-move mint.
	if req2.CorID == req.CorID {
		t.Fatalf("derived ID %q reused across handoff", req2.CorID)
	}
	if !strings.HasPrefix(req2.CorID, "derived-pw") {
		t.Fatalf("derived cor after move = %q", req2.CorID)
	}
}

// TestShardReplayAcrossMove checks at-most-once across a handoff: an
// operation executed on the old node must not re-execute when the client
// replays it against the new one.
func TestShardReplayAcrossMove(t *testing.T) {
	ctx := context.Background()
	src := New(Options{})
	dst := New(Options{})

	executions := 0
	val, replayed := src.ReplayDo("dev-1", "req-42", func() any {
		executions++
		return map[string]any{"minted": "derived-pw-1"}
	})
	if replayed || executions != 1 {
		t.Fatalf("first execution: val=%v replayed=%v n=%d", val, replayed, executions)
	}

	exp, err := src.DetachShard("dev-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ImportShard(ctx, exp); err != nil {
		t.Fatal(err)
	}

	val2, replayed2 := dst.ReplayDo("dev-1", "req-42", func() any {
		executions++
		return nil
	})
	if !replayed2 {
		t.Fatal("replay after handoff executed twice")
	}
	if executions != 1 {
		t.Fatalf("operation executed %d times", executions)
	}
	raw, ok := ReplayedRaw(val2)
	if !ok {
		t.Fatalf("expected imported raw replay value, got %T", val2)
	}
	if !strings.Contains(string(raw), "derived-pw-1") {
		t.Fatalf("raw replay value = %s", raw)
	}
}

// TestShardAuditSeqContinuity moves a device mid-history and checks the
// per-device audit sequence stays gap-free when both nodes' logs are merged
// by DeviceSeq — the property cmd/tinman-audit -merge relies on.
func TestShardAuditSeqContinuity(t *testing.T) {
	ctx := context.Background()
	src := New(Options{})
	dst := New(Options{})
	for _, svc := range []*Service{src, dst} {
		if _, err := svc.RegisterCor(ctx, "pw", "hunter2!", "pw", "bank.com"); err != nil {
			t.Fatal(err)
		}
	}

	dev := newDeviceHalf(t, src, "dev-1", "login", loginSrc)
	hash := dev.install(t, src, loginSrc)
	src.BindApp("pw", hash)
	dst.BindApp("pw", hash)

	if _, err := dev.login(t, src, "pw"); err != nil {
		t.Fatal(err)
	}
	resealOnce(t, src, "dev-1", hash)

	exp, err := src.DetachShard("dev-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ImportShard(ctx, exp); err != nil {
		t.Fatal(err)
	}

	dev2 := newDeviceHalf(t, dst, "dev-1", "login", loginSrc)
	if _, err := dev2.login(t, dst, "pw"); err != nil {
		t.Fatal(err)
	}
	resealOnce(t, dst, "dev-1", hash)

	var seqs []uint64
	for _, svc := range []*Service{src, dst} {
		for _, e := range svc.Audit.Find(audit.Query{DeviceID: "dev-1"}) {
			if e.DeviceSeq == 0 {
				t.Fatalf("entry without device seq: %v", e)
			}
			seqs = append(seqs, e.DeviceSeq)
		}
	}
	if len(seqs) < 4 {
		t.Fatalf("expected entries on both nodes, got %d", len(seqs))
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("device seq gap: merged stream %v", seqs)
		}
	}
}
