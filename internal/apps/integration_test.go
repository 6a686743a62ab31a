package apps

import (
	"errors"
	"strings"
	"testing"

	"tinman/internal/netsim"
	"tinman/internal/node"
	"tinman/internal/vm"
)

func TestBaselineLoginSucceeds(t *testing.T) {
	// The unmodified-Android baseline: plaintext on the device, direct send.
	env, err := NewLoginEnv(EnvConfig{Profile: netsim.WiFi, TinMan: false, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := env.Login("paypal")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations != 0 {
		t.Fatalf("baseline migrated %d times", rep.Migrations)
	}
	srv := env.Servers["paypal"]
	if !srv.SawSubstring(PasswordHash("correct horse battery")) {
		t.Fatal("server did not receive the password hash")
	}
}

func TestTinManLoginEndToEnd(t *testing.T) {
	env, err := NewLoginEnv(EnvConfig{Profile: netsim.WiFi, TinMan: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := env.Login("paypal")
	if err != nil {
		t.Fatal(err)
	}

	// The login must actually authenticate: the origin server saw the real
	// password hash, sent by the trusted node.
	srv := env.Servers["paypal"]
	wantHash := PasswordHash("correct horse battery")
	if !srv.SawSubstring(wantHash) {
		t.Fatalf("server never saw the real hash; requests: %v", srv.Requests)
	}
	// And never a placeholder.
	if srv.SawSubstring("TINMAN-PLACEHOLDER") {
		t.Fatal("SECURITY: placeholder reached the origin server")
	}

	// Offloading happened.
	if rep.Migrations == 0 || rep.Syncs == 0 {
		t.Fatalf("no offloading recorded: %+v", rep)
	}
	if rep.NodeCalls == 0 || rep.DeviceCalls == 0 {
		t.Fatalf("call split missing: %+v", rep)
	}
	// The offloaded fraction is small (<10%), per the paper's observation.
	if f := rep.OffloadedFraction(); f <= 0 || f > 0.10 {
		t.Fatalf("offloaded fraction = %.3f, want (0, 0.10]", f)
	}
	// The initial heap still reaches the node, but via the speculative
	// warm-up stream: background chunks carry the full snapshot, the
	// trigger-time migration ships only the dirty delta, and the node
	// admits it as a warm hit.
	if rep.WarmHits != 1 || rep.WarmMisses != 0 {
		t.Fatalf("warm hit/miss = %d/%d, want 1/0: %+v", rep.WarmHits, rep.WarmMisses, rep)
	}
	if rep.WarmupBytes == 0 || rep.WarmupChunks == 0 {
		t.Fatal("no warm-up stream recorded")
	}
	if rep.InitBytes != 0 {
		t.Fatalf("warm-path login still shipped a %dB initial sync", rep.InitBytes)
	}
	if rep.TriggerSyncBytes == 0 || rep.TriggerSyncBytes > rep.WarmupBytes/10 {
		t.Fatalf("trigger sync %dB should be a small delta of the %dB warm stream",
			rep.TriggerSyncBytes, rep.WarmupBytes)
	}

	// SECURITY: no plaintext of the password (or its hash) anywhere on the
	// device heap — the paper's core guarantee (§5.1).
	app := env.Apps["paypal"]
	for _, o := range app.VM().Heap.Objects() {
		if o.IsStr && (strings.Contains(o.Str, "correct horse battery") || strings.Contains(o.Str, wantHash)) {
			t.Fatalf("SECURITY: secret residue on device heap in object #%d", o.ID)
		}
	}
	// The audit log recorded the accesses.
	if env.World.Node.Audit.Len() == 0 {
		t.Fatal("no audit entries")
	}
}

func TestAllLoginAppsBothConfigs(t *testing.T) {
	for _, tinman := range []bool{false, true} {
		for _, spec := range LoginApps {
			name := spec.Name
			env, err := NewLoginEnv(EnvConfig{Profile: netsim.WiFi, TinMan: tinman, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := env.Login(name)
			if err != nil {
				t.Fatalf("%s (tinman=%v): %v", name, tinman, err)
			}
			if tinman {
				if rep.Migrations == 0 {
					t.Fatalf("%s: no migrations under TinMan", name)
				}
				if rep.Syncs < 2 || rep.Syncs > 6 {
					t.Fatalf("%s: %d syncs, want the paper's 2-4ish range", name, rep.Syncs)
				}
			}
		}
	}
}

func TestTwoPhaseAppsSyncMoreThanSimple(t *testing.T) {
	env, err := NewLoginEnv(EnvConfig{Profile: netsim.WiFi, TinMan: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := env.Login("paypal")
	if err != nil {
		t.Fatal(err)
	}
	re, err := env.Login("ebay")
	if err != nil {
		t.Fatal(err)
	}
	if re.Syncs <= rp.Syncs {
		t.Fatalf("two-phase ebay synced %d <= simple paypal %d", re.Syncs, rp.Syncs)
	}
}

func TestTinManSlowerThanBaselineButBounded(t *testing.T) {
	base, err := NewLoginEnv(EnvConfig{Profile: netsim.WiFi, TinMan: false, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := base.Login("paypal")
	if err != nil {
		t.Fatal(err)
	}
	tin, err := NewLoginEnv(EnvConfig{Profile: netsim.WiFi, TinMan: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := tin.Login("paypal")
	if err != nil {
		t.Fatal(err)
	}
	if rt.Total <= rb.Total {
		t.Fatalf("TinMan login (%v) should cost more than baseline (%v)", rt.Total, rb.Total)
	}
	if rt.Total > 4*rb.Total {
		t.Fatalf("TinMan login (%v) over 4x baseline (%v): overhead out of the paper's regime", rt.Total, rb.Total)
	}
	if rt.DSMTime == 0 || rt.SSLTime == 0 {
		t.Fatalf("missing breakdown: %+v", rt)
	}
}

func TestPhishingAppDenied(t *testing.T) {
	// §5.2: a repackaged app (different dex hash) cannot use the cor.
	env, err := NewLoginEnv(EnvConfig{Profile: netsim.WiFi, TinMan: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := SpecByName("paypal")
	evil := spec
	evil.Name = "paypal-phish"
	evil.ClassName = "PhishApp" // different code => different hash
	app, err := env.World.Device.InstallApp(evil.Name, evil.Source(), 64)
	if err != nil {
		t.Fatal(err)
	}
	// Note: NOT bound to the cor.
	d := env.World.Device
	pw, err := d.CorArg(app, spec.CorID)
	if err != nil {
		t.Fatal(err)
	}
	_, err = app.Run(evil.ClassName, "login",
		d.StringArg(app, spec.Account), pw, d.StringArg(app, spec.Domain))
	if err == nil || !strings.Contains(err.Error(), "app not bound") {
		t.Fatalf("phishing app err = %v, want app-binding denial", err)
	}
	// The denial is in the audit log.
	found := false
	for _, e := range env.World.Node.Audit.Entries() {
		if e.Outcome == 1 && strings.Contains(e.Detail, "app not bound") {
			found = true
		}
	}
	if !found {
		t.Fatal("denial not audited")
	}
}

func TestRogueDomainDenied(t *testing.T) {
	// §3.4 second binding: the password cannot be sent to a non-whitelisted
	// domain even by the legitimate app code.
	env, err := NewLoginEnv(EnvConfig{Profile: netsim.WiFi, TinMan: true, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// An attacker-controlled server, reachable but not whitelisted.
	if _, err := NewOriginServer(env.World, "evil.example", "198.51.100.66", nil); err != nil {
		t.Fatal(err)
	}
	spec, _ := SpecByName("paypal")
	app := env.Apps["paypal"]
	d := env.World.Device
	pw, err := d.CorArg(app, spec.CorID)
	if err != nil {
		t.Fatal(err)
	}
	_, err = app.Run(spec.ClassName, "login",
		d.StringArg(app, spec.Account), pw, d.StringArg(app, "evil.example"))
	if err == nil || !strings.Contains(err.Error(), "domain not in whitelist") {
		t.Fatalf("rogue domain err = %v, want whitelist denial", err)
	}
}

func TestRevokedDeviceDenied(t *testing.T) {
	env, err := NewLoginEnv(EnvConfig{Profile: netsim.WiFi, TinMan: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.World.Node.Svc.Revoke(env.World.Device.ID); err != nil {
		t.Fatal(err)
	}
	_, err = env.Login("paypal")
	if err == nil || !strings.Contains(err.Error(), "revoked") || !errors.Is(err, node.ErrRevoked) {
		t.Fatalf("revoked device err = %v", err)
	}
}

func TestLegacyTLS10ServerRefused(t *testing.T) {
	// §3.2: the modified SSL library refuses TLS 1.0 servers outright.
	env, err := NewLoginEnv(EnvConfig{Profile: netsim.WiFi, TinMan: true, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	env.Servers["paypal"].MaxVersion = 0x0301 // TLS 1.0
	_, err = env.Login("paypal")
	if err == nil || !strings.Contains(err.Error(), "below required minimum") {
		t.Fatalf("TLS1.0 server err = %v, want min-version refusal", err)
	}
}

func TestThreeGSlowerThanWiFi(t *testing.T) {
	run := func(p netsim.Profile) int64 {
		env, err := NewLoginEnv(EnvConfig{Profile: p, TinMan: true, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := env.Login("paypal")
		if err != nil {
			t.Fatal(err)
		}
		return int64(rep.Total)
	}
	wifi := run(netsim.WiFi)
	tg := run(netsim.ThreeG)
	if tg <= wifi {
		t.Fatalf("3G login (%d) should be slower than Wi-Fi (%d)", tg, wifi)
	}
}

func TestSpecSourcesAssemble(t *testing.T) {
	for _, s := range LoginApps {
		if _, ok := SpecByName(s.Name); !ok {
			t.Fatalf("SpecByName(%s) failed", s.Name)
		}
		src := s.Source()
		if !strings.Contains(src, "hash r3, r1") {
			t.Fatalf("%s: missing offload trigger", s.Name)
		}
	}
	if _, ok := SpecByName("nope"); ok {
		t.Fatal("unknown spec resolved")
	}
}

func TestLoginResultIsInt(t *testing.T) {
	env, err := NewLoginEnv(EnvConfig{Profile: netsim.WiFi, TinMan: true, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	app := env.Apps["github"]
	spec, _ := SpecByName("github")
	d := env.World.Device
	pw, _ := d.CorArg(app, spec.CorID)
	res, err := app.Run(spec.ClassName, "login",
		d.StringArg(app, spec.Account), pw, d.StringArg(app, spec.Domain))
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != vm.KindInt || res.Int != 1 {
		t.Fatalf("github login result = %v", res)
	}
	// The lock dance produced at least 2 round trips.
	if app.Report.Migrations < 2 {
		t.Fatalf("github migrations = %d, want >= 2 (lock bounce)", app.Report.Migrations)
	}
}
