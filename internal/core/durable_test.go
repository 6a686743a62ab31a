package core

import (
	"bytes"
	"testing"

	"tinman/internal/cor"
	"tinman/internal/fault"
	"tinman/internal/netsim"
	"tinman/internal/store"
)

// TestDurableNodeSurvivesWorldRestart runs the standard offload scenario
// with a crash-safe store attached to the trusted node, kills the node, and
// boots a fresh World against the recovered store: registered cors, the
// offload-minted derived cor, the app binding and the audit trail must all
// survive, and the simulated disk must never hold cor plaintext.
func TestDurableNodeSurvivesWorldRestart(t *testing.T) {
	sealer, err := cor.NewSealer("core-store-pass", bytes.Repeat([]byte{0x3c}, cor.SaltLen))
	if err != nil {
		t.Fatal(err)
	}
	fs := fault.NewCrashFS(29)
	open := func() *store.Store {
		st, err := store.Open(store.Options{Dir: "store", FS: fs, Sealer: sealer})
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		return st
	}

	w := newTestWorld(t, true)
	if err := w.Node.AttachStore(open()); err != nil {
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
	if err := w.Node.BindApp("pw", app.Hash()); err != nil {
		t.Fatal(err)
	}
	pw, err := w.Device.CorArg(app, "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run("Tiny", "touch", pw); err != nil {
		t.Fatal(err)
	}
	wantCors := w.Node.Svc.Cors.Len()
	wantAudit := w.Node.Svc.Audit.Len()
	if wantAudit == 0 {
		t.Fatal("offload produced no audit entries")
	}

	// Kill the node process; the simulated disk keeps only synced state.
	fs.CrashNow()
	fs.Restart()

	// A fresh world (fresh process) recovers the node from its store.
	w2, err := NewWorld(Config{Seed: 2, Profile: netsim.WiFi, TinManEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Node.AttachStore(open()); err != nil {
		t.Fatal(err)
	}
	if got := w2.Node.Svc.Cors.Len(); got != wantCors {
		t.Fatalf("recovered %d cors, want %d", got, wantCors)
	}
	if got := w2.Node.Svc.Audit.Len(); got != wantAudit {
		t.Fatalf("recovered %d audit entries, want %d", got, wantAudit)
	}
	rec := w2.Node.Svc.Cors.Get("pw")
	if rec == nil || rec.Plaintext != "secret12" {
		t.Fatalf("recovered cor = %+v", rec)
	}

	// The device re-pairs with the recovered node: app state is device-side
	// runtime, so it reinstalls, but the cor and its binding are already
	// there — the offload works without re-registering anything.
	if err := w2.Device.RefreshCatalog(); err != nil {
		t.Fatal(err)
	}
	app2, err := w2.Device.InstallApp("tiny", tinyApp, 8)
	if err != nil {
		t.Fatal(err)
	}
	pw2, err := w2.Device.CorArg(app2, "pw")
	if err != nil {
		t.Fatal(err)
	}
	res, err := app2.Run("Tiny", "touch", pw2)
	if err != nil {
		t.Fatalf("offload after recovery: %v", err)
	}
	if app2.Report.Migrations == 0 {
		t.Fatal("no offload happened after recovery")
	}
	if res.Int == int64('s') && res.Tag.Empty() {
		t.Fatal("plaintext first byte returned untainted after recovery")
	}

	if hits := fault.ScanForPlaintext(fs.DiskBytes(), []string{"secret12"}); len(hits) != 0 {
		t.Fatalf("cor plaintext on disk: %v", hits)
	}
}
