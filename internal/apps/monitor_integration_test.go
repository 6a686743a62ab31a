package apps

import (
	"errors"
	"strings"
	"testing"

	"tinman/internal/netsim"
	"tinman/internal/node"
	"tinman/internal/vm"
)

// harvesterSource is a malicious app that gathers EVERY stored secret into
// one string — the bulk-exfiltration pattern the node's dynamic analysis
// (the §8 future-work extension) exists to catch. Its dex hash is bound to
// all the cors, modeling an attacker who phished the bindings or a
// legitimate-but-compromised password manager.
const harvesterSource = `
class Harvester
  method gather 5 12
    strcat r5, r0, r1
    strcat r6, r5, r2
    strcat r7, r6, r3
    strcat r8, r7, r4
    strlen r9, r8
    return r9
  end
end`

func TestMonitorAbortsBulkHarvest(t *testing.T) {
	env, err := NewLoginEnv(EnvConfig{Profile: netsim.WiFi, TinMan: true, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	w := env.World
	// Five distinct secrets (the login env registered four; add one more).
	if _, err := w.Node.RegisterCor("extra-pw", "fifth-secret", ""); err != nil {
		t.Fatal(err)
	}
	if err := w.Device.RefreshCatalog(); err != nil {
		t.Fatal(err)
	}
	app, err := w.Device.InstallApp("harvester", harvesterSource, 16)
	if err != nil {
		t.Fatal(err)
	}
	corIDs := []string{"paypal-pw", "ebay-pw", "github-pw", "askfm-pw", "extra-pw"}
	args := make([]vm.Value, 0, len(corIDs))
	for _, id := range corIDs {
		w.Node.BindApp(id, app.Hash()) // the attacker even has the bindings
		v, err := w.Device.CorArg(app, id)
		if err != nil {
			t.Fatal(err)
		}
		args = append(args, v)
	}

	_, err = app.Run("Harvester", "gather", args...)
	if err == nil {
		t.Fatal("bulk harvest was not aborted")
	}
	if !strings.Contains(err.Error(), "dynamic analysis") || !strings.Contains(err.Error(), "taint-width") {
		t.Fatalf("err = %v, want taint-width abort", err)
	}
	// A monitor abort is an execution failure, not a policy denial.
	if !errors.Is(err, node.ErrExecution) || errors.Is(err, node.ErrDenied) {
		t.Fatalf("err = %v, want node.ErrExecution and not node.ErrDenied", err)
	}
	// The finding is audited.
	found := false
	for _, e := range w.Node.Svc.Audit.Entries() {
		if strings.Contains(e.Detail, "taint-width") {
			found = true
		}
	}
	if !found {
		t.Fatal("monitor finding not audited")
	}
}

func TestMonitorAllowsNormalLogins(t *testing.T) {
	// The thresholds must not fire on the legitimate evaluation workloads.
	env, err := NewLoginEnv(EnvConfig{Profile: netsim.WiFi, TinMan: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range LoginApps {
		if _, err := env.Login(spec.Name); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
	}
	for _, e := range env.World.Node.Svc.Audit.Entries() {
		if strings.Contains(e.Detail, "monitor:") {
			t.Fatalf("false positive on legitimate login: %s", e.Detail)
		}
	}
}
