package node

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"tinman/internal/audit"
	"tinman/internal/cor"
	"tinman/internal/dsm"
	"tinman/internal/policy"
	"tinman/internal/taint"
	"tinman/internal/tlssim"
	"tinman/internal/vm"
	"tinman/internal/vm/asm"
)

// loginSrc is the paper's running example (fig 5 / fig 11): hash the
// password, concatenate the request. The strcat chain mints a derived cor
// on the node, exercising the masked-return path.
const loginSrc = `
class Bank
  method login 2 8          ; r0 = account, r1 = passwd
    hash r2, r1
    conststr r3, "user="
    strcat r4, r3, r0
    conststr r5, "&hash="
    strcat r6, r4, r5
    strcat r7, r6, r2
    return r7
  end
end`

// loginSrcB is a behaviorally equivalent variant with a different dex hash,
// so two devices can install "the same app name, different binary".
const loginSrcB = `
class Bank
  method login 2 9          ; r0 = account, r1 = passwd
    hash r2, r1
    conststr r3, "user="
    strcat r4, r3, r0
    conststr r5, "&hash="
    strcat r6, r4, r5
    strcat r7, r6, r2
    const r8, 1
    return r7
  end
end`

// deviceHalf is a minimal device: its own VM (odd heap IDs, asymmetric
// tainting) and DSM endpoint, resolving cors to placeholders only.
type deviceHalf struct {
	id          string
	prog        *vm.Program
	vm          *vm.VM
	ep          *dsm.Endpoint
	lastTrigger taint.Tag
}

// deviceResolver serves placeholders; it can never mint cor IDs.
type deviceResolver struct{ store *cor.Store }

func (r *deviceResolver) Fill(id string, length int) (string, taint.Tag, bool) {
	for _, v := range r.store.DeviceViews() {
		if v.ID == id {
			return v.Placeholder, taint.Bit(v.Bit), true
		}
	}
	return cor.Placeholder(id, length), taint.None, true
}

func (r *deviceResolver) MaskID(o *vm.Object) string { return "" }

func newDeviceHalf(t testing.TB, svc *Service, deviceID, appName, src string) *deviceHalf {
	t.Helper()
	prog, err := asm.Assemble(appName, src)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.New(vm.Config{Program: prog, Heap: vm.NewHeap(1, 2), Policy: taint.Asymmetric})
	d := &deviceHalf{
		id:   deviceID,
		prog: prog,
		vm:   machine,
		ep:   dsm.NewEndpoint(dsm.DeviceSide, machine, &deviceResolver{store: svc.Cors}),
	}
	machine.Hooks.OnTaintedAccess = func(tag taint.Tag, ev taint.Event) bool {
		d.lastTrigger = tag
		return true
	}
	return d
}

// install registers the device's app with the service and returns its hash.
func (d *deviceHalf) install(t testing.TB, svc *Service, src string) string {
	t.Helper()
	res, err := svc.Install(context.Background(), InstallRequest{
		DeviceID: d.id, Name: "login", Source: src,
		NonOffloadableNatives: []string{"ui_notify"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Hash
}

// login runs one offload round against the service: touch the placeholder
// on the device, migrate, let the node run the login, apply the reply. The
// returned object is the device's (masked) view of the request string.
func (d *deviceHalf) login(t testing.TB, svc *Service, corID string) (*vm.Object, error) {
	t.Helper()
	views, err := svc.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var view cor.DeviceView
	for _, v := range views {
		if v.ID == corID {
			view = v
		}
	}
	if view.ID == "" {
		t.Fatalf("cor %s not in catalog", corID)
	}
	placeholder := d.vm.NewTaintedString(view.Placeholder, taint.Bit(view.Bit))
	placeholder.CorID = view.ID
	account := d.vm.NewString("alice")
	th, err := d.vm.NewThread(d.prog.Method("Bank", "login"), vm.RefVal(account), vm.RefVal(placeholder))
	if err != nil {
		t.Fatal(err)
	}
	stop, err := th.Run()
	if err != nil || stop != vm.StopMigrateTaint {
		t.Fatalf("device run: stop=%v err=%v", stop, err)
	}
	mig, err := d.ep.CaptureMigration(th, stop)
	if err != nil {
		t.Fatal(err)
	}
	mig.TriggerTag = uint64(d.lastTrigger)
	res, err := svc.Offload(context.Background(), d.id, "login", mig.Encode())
	if err != nil {
		return nil, err
	}
	back, err := dsm.DecodeMigration(res.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ep.ApplyMigration(back); err != nil {
		t.Fatal(err)
	}
	out, err := d.ep.DecodeResult(back)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ref == nil {
		t.Fatal("no result object")
	}
	return out.Ref, nil
}

// sessionState returns a marshaled TLS ≥1.1 session state plus the origin
// session that can open node-sealed records.
func sessionState(t testing.TB) (json.RawMessage, *tlssim.Session) {
	t.Helper()
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cs, ss, _, err := tlssim.Handshake(tlssim.ClientConfig{MinVersion: tlssim.TLS11}, tlssim.ServerConfig{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(cs.Export())
	if err != nil {
		t.Fatal(err)
	}
	return raw, ss
}

// TestMultiDeviceIsolation is the multi-tenancy check: two devices install
// the same app name with different binaries, each bound to its own cor;
// policy decisions, offload hosting and audit attribution must stay
// per-device, including through a mid-run revocation.
func TestMultiDeviceIsolation(t *testing.T) {
	ctx := context.Background()
	svc := New(Options{})

	if _, err := svc.RegisterCor(ctx, "pw-a", "hunter2!", "device A's bank password", "bank-a.com"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterCor(ctx, "pw-b", "letmein1", "device B's bank password", "bank-b.com"); err != nil {
		t.Fatal(err)
	}

	devA := newDeviceHalf(t, svc, "dev-a", "login", loginSrc)
	devB := newDeviceHalf(t, svc, "dev-b", "login", loginSrcB)
	hashA := devA.install(t, svc, loginSrc)
	hashB := devB.install(t, svc, loginSrcB)
	if hashA == hashB {
		t.Fatal("test needs two distinct app binaries")
	}
	svc.BindApp("pw-a", hashA)
	svc.BindApp("pw-b", hashB)

	// Both devices see the full catalog; isolation is enforced by policy,
	// not by hiding entries.
	views, err := svc.Catalog(ctx)
	if err != nil || len(views) != 2 {
		t.Fatalf("catalog = %v, %v", views, err)
	}

	// Each device offloads against its own cor. The result that lands on the
	// device is a masked derived cor whose lineage names the right parent —
	// plaintext never leaves the node.
	reqA, err := devA.login(t, svc, "pw-a")
	if err != nil {
		t.Fatalf("device A offload: %v", err)
	}
	if !strings.HasPrefix(reqA.CorID, "derived-pw-a") {
		t.Fatalf("device A derived cor = %q", reqA.CorID)
	}
	if strings.Contains(reqA.Str, "hunter2") {
		t.Fatal("SECURITY: device A saw plaintext")
	}
	reqB, err := devB.login(t, svc, "pw-b")
	if err != nil {
		t.Fatalf("device B offload: %v", err)
	}
	if !strings.HasPrefix(reqB.CorID, "derived-pw-b") {
		t.Fatalf("device B derived cor = %q", reqB.CorID)
	}
	// A derived cor is checked against its parent's rules: pw-b's
	// whitelist refuses device A's bank.
	raw, _ := sessionState(t)
	_, err = svc.Reseal(ctx, ResealRequest{CorID: reqB.CorID, AppHash: hashB, DeviceID: "dev-b", Domain: "bank-a.com", State: raw})
	if d, ok := policy.IsDenial(err); !ok || d.Reason != policy.ReasonDomainNotAllowed {
		t.Fatalf("derived cor sent outside its parent's whitelist: err = %v", err)
	}

	// Cross-device access: device B's binary touching device A's cor is
	// refused by the app binding, and the denial is attributed to B.
	if _, err := devB.login(t, svc, "pw-a"); !errors.Is(err, ErrDenied) {
		t.Fatalf("cross-device access: err = %v, want ErrDenied", err)
	}

	// Mid-run revocation of device B must not disturb device A.
	svc.Revoke("dev-b")
	if _, err := devB.login(t, svc, "pw-b"); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revoked device B: err = %v, want ErrRevoked", err)
	}
	if _, err := devA.login(t, svc, "pw-a"); err != nil {
		t.Fatalf("device A after revoking B: %v", err)
	}
	svc.Restore("dev-b")
	if _, err := devB.login(t, svc, "pw-b"); err != nil {
		t.Fatalf("device B after restore: %v", err)
	}

	// Audit attribution: each device's trail mentions only itself, and the
	// cross-device denial plus the revocation denial landed on dev-b.
	forA, err := svc.AuditQuery(ctx, audit.Query{DeviceID: "dev-a"})
	if err != nil || len(forA) == 0 {
		t.Fatalf("audit for dev-a: %v, %v", forA, err)
	}
	for _, e := range forA {
		if e.DeviceID != "dev-a" {
			t.Fatalf("dev-a query returned entry for %q", e.DeviceID)
		}
		if e.Outcome == audit.OutcomeDenied {
			t.Fatalf("device A was denied: %+v", e)
		}
	}
	forB, err := svc.AuditQuery(ctx, audit.Query{DeviceID: "dev-b"})
	if err != nil {
		t.Fatal(err)
	}
	var denials int
	for _, e := range forB {
		if e.DeviceID != "dev-b" {
			t.Fatalf("dev-b query returned entry for %q", e.DeviceID)
		}
		if e.Outcome == audit.OutcomeDenied {
			denials++
		}
	}
	if denials < 2 {
		t.Fatalf("dev-b denials = %d, want the binding refusal and the revocation", denials)
	}
}

// TestErrorTaxonomy pins the sentinel and errors.As behavior of every
// service error class.
func TestErrorTaxonomy(t *testing.T) {
	ctx := context.Background()
	svc := New(Options{})
	state, origin := sessionState(t)

	if _, err := svc.RegisterCor(ctx, "pw", "hunter2!", "bank password", "bank.com"); err != nil {
		t.Fatal(err)
	}

	// Unknown cor.
	_, err := svc.Reseal(ctx, ResealRequest{CorID: "nope", DeviceID: "d1", State: state})
	if !errors.Is(err, ErrUnknownCor) || errors.Is(err, ErrDenied) {
		t.Fatalf("unknown cor: %v", err)
	}

	// A device-keyed call without a device ID is a bad request and attaches
	// no shard keyed "".
	if _, err := svc.Reseal(ctx, ResealRequest{CorID: "pw", Domain: "bank.com", State: state}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("reseal without device ID: %v", err)
	}
	if _, err := svc.Install(ctx, InstallRequest{Name: "login", Source: loginSrc}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("install without device ID: %v", err)
	}
	if svc.AttachShard("", 0) {
		t.Fatal("AttachShard attached a shard for an empty device ID")
	}
	if _, ok := svc.Shard(""); ok {
		t.Fatal("a shard keyed by the empty device ID exists")
	}

	// Plain policy denial (app not bound) carries ErrDenied plus the
	// extractable *policy.Denial.
	svc.BindApp("pw", "the-right-app")
	_, err = svc.Reseal(ctx, ResealRequest{CorID: "pw", AppHash: "wrong-app", DeviceID: "d1", Domain: "bank.com", State: state})
	if !errors.Is(err, ErrDenied) || errors.Is(err, ErrRevoked) {
		t.Fatalf("unbound app: %v", err)
	}
	var d *policy.Denial
	if !errors.As(err, &d) || d.Reason != policy.ReasonAppNotBound {
		t.Fatalf("denial not extractable: %v", err)
	}

	// Revocation gets its own sentinel and still matches ErrDenied.
	svc.Revoke("d1")
	_, err = svc.Reseal(ctx, ResealRequest{CorID: "pw", AppHash: "the-right-app", DeviceID: "d1", Domain: "bank.com", State: state})
	if !errors.Is(err, ErrRevoked) || !errors.Is(err, ErrDenied) {
		t.Fatalf("revoked: %v", err)
	}
	svc.Restore("d1")

	// A good reseal still works and the origin can open it.
	rec, err := svc.Reseal(ctx, ResealRequest{CorID: "pw", AppHash: "the-right-app", DeviceID: "d1", Domain: "bank.com", State: state})
	if err != nil {
		t.Fatal(err)
	}
	if _, plaintext, _, err := origin.Open(rec); err != nil || string(plaintext) != "hunter2!" {
		t.Fatalf("origin open: %q, %v", plaintext, err)
	}

	// Record-length mismatch.
	_, err = svc.Reseal(ctx, ResealRequest{CorID: "pw", AppHash: "the-right-app", DeviceID: "d1", Domain: "bank.com", State: state, RecordLen: 5})
	if !errors.Is(err, ErrRecordLength) {
		t.Fatalf("length mismatch: %v", err)
	}

	// TLS 1.0 session state is refused with ErrWeakTLS.
	key, _ := rsa.GenerateKey(rand.Reader, 1024)
	cs10, _, _, err := tlssim.Handshake(
		tlssim.ClientConfig{MaxVersion: tlssim.TLS10, Suites: []tlssim.Suite{tlssim.SuiteAESCBCSHA256}},
		tlssim.ServerConfig{MaxVersion: tlssim.TLS10, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	raw10, _ := json.Marshal(cs10.Export())
	_, err = svc.Reseal(ctx, ResealRequest{CorID: "pw", AppHash: "the-right-app", DeviceID: "d1", Domain: "bank.com", State: raw10})
	if !errors.Is(err, ErrWeakTLS) {
		t.Fatalf("TLS1.0: %v", err)
	}

	// Malware install gets ErrMalware and ErrDenied.
	prog, err := asm.Assemble("mal", loginSrc)
	if err != nil {
		t.Fatal(err)
	}
	svc.Malware.Add(prog.Hash(), "TestTrojan")
	_, err = svc.Install(ctx, InstallRequest{DeviceID: "d1", Name: "mal", Source: loginSrc})
	if !errors.Is(err, ErrMalware) || !errors.Is(err, ErrDenied) {
		t.Fatalf("malware install: %v", err)
	}

	// Unknown app on offload.
	_, err = svc.Offload(ctx, "d1", "ghost", nil)
	if !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("unknown app: %v", err)
	}

	// Unarmed payload replacement.
	_, err = svc.ReplacePayload(ctx, InjectionKey{ClientAddr: "10.0.0.2", ClientPort: 1}, 10)
	if !errors.Is(err, ErrNoInjection) {
		t.Fatalf("no injection: %v", err)
	}

	// A service error crosses a transport as its stable code, which maps
	// back onto the same sentinel; an uncoded error carries no code.
	if code := Code(err); code == 0 || SentinelForCode(code) != ErrNoInjection {
		t.Fatalf("code %d does not map back to ErrNoInjection", code)
	}
	if Code(errors.New("plain")) != 0 || SentinelForCode(0) != nil || SentinelForCode(1<<20) != nil {
		t.Fatal("uncoded errors or unknown codes map to a sentinel")
	}
}

// TestContextCancellation: a cancelled context short-circuits every service
// entry point without touching state.
func TestContextCancellation(t *testing.T) {
	svc := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := svc.RegisterCor(ctx, "pw", "x", "d"); !errors.Is(err, context.Canceled) {
		t.Fatalf("RegisterCor: %v", err)
	}
	if _, err := svc.Catalog(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Catalog: %v", err)
	}
	if _, err := svc.Reseal(ctx, ResealRequest{CorID: "pw"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Reseal: %v", err)
	}
	if _, err := svc.Offload(ctx, "d", "a", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Offload: %v", err)
	}
	if err := svc.ArmInjection(ctx, InjectRequest{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ArmInjection: %v", err)
	}
	if svc.Cors.Len() != 0 {
		t.Fatal("cancelled call mutated the vault")
	}
}

// TestInjectionRoundTrip drives ArmInjection + ReplacePayload through the
// service (the fig 8 flow without the TCP simulation).
func TestInjectionRoundTrip(t *testing.T) {
	ctx := context.Background()
	svc := New(Options{})
	state, origin := sessionState(t)

	if _, err := svc.RegisterCor(ctx, "pw", "hunter2!", "bank password", "bank.com"); err != nil {
		t.Fatal(err)
	}
	dev := newDeviceHalf(t, svc, "dev-1", "login", loginSrc)
	hash := dev.install(t, svc, loginSrc)
	svc.BindApp("pw", hash)

	key := InjectionKey{ClientAddr: "10.0.0.2", ClientPort: 40000, ServerAddr: "203.0.113.5", ServerPort: 443}
	err := svc.ArmInjection(ctx, InjectRequest{
		DeviceID: "dev-1", App: "login", CorID: "pw", Domain: "bank.com", Key: key, State: state,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Learn the replacement length from a probe seal of the placeholder.
	views, _ := svc.Catalog(ctx)
	probe, err := tlssim.Resume(mustState(t, state), nil)
	if err != nil {
		t.Fatal(err)
	}
	probeRec, err := probe.Seal(tlssim.TypeApplicationData, []byte(views[0].Placeholder))
	if err != nil {
		t.Fatal(err)
	}
	out, err := svc.ReplacePayload(ctx, key, len(probeRec))
	if err != nil {
		t.Fatal(err)
	}
	if _, plaintext, _, err := origin.Open(out); err != nil || string(plaintext) != "hunter2!" {
		t.Fatalf("origin open: %q, %v", plaintext, err)
	}
	// One-shot: the second replacement on the same flow must fail.
	if _, err := svc.ReplacePayload(ctx, key, len(probeRec)); !errors.Is(err, ErrNoInjection) {
		t.Fatalf("second replacement: %v", err)
	}
}

func mustState(t testing.TB, raw json.RawMessage) *tlssim.State {
	t.Helper()
	st, err := tlssim.UnmarshalState(raw)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
