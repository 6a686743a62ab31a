package core

import (
	"testing"
)

// TestHandoffToStandbyNode moves the device's shard from the primary
// trusted node to a standby via the export/import path: hosted apps and the
// per-device audit sequence follow the shard, and the primary retains
// nothing.
func TestHandoffToStandbyNode(t *testing.T) {
	w := newTestWorld(t, true)
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
	if _, err := app.Run("Tiny", "touch", pw); err != nil {
		t.Fatal(err)
	}
	if app.Report.Migrations == 0 {
		t.Fatal("no offload happened; nothing to hand off")
	}

	dev := w.Device.ID
	before, ok := w.Node.Svc.Shard(dev)
	if !ok {
		t.Fatal("no shard on primary after the session")
	}
	if before.Apps == 0 {
		t.Fatal("shard hosts no apps")
	}

	standby := w.AddStandbyNode("standby-node")
	// Control-plane replication: the standby carries the registered cor, as
	// every fleet member would.
	if _, err := standby.RegisterCor("pw", "secret12", "test pw"); err != nil {
		t.Fatal(err)
	}
	standby.BindApp("pw", app.Hash())

	if err := w.Node.HandoffTo(standby, dev); err != nil {
		t.Fatal(err)
	}
	if _, still := w.Node.Svc.Shard(dev); still {
		t.Fatal("shard still attached on primary after handoff")
	}
	after, ok := standby.Svc.Shard(dev)
	if !ok {
		t.Fatal("shard not attached on standby")
	}
	if after.Apps != before.Apps {
		t.Fatalf("apps did not follow the shard: %d on standby, %d before", after.Apps, before.Apps)
	}
	if after.AuditSeq != before.AuditSeq {
		t.Fatalf("audit sequence reset across handoff: %d -> %d", before.AuditSeq, after.AuditSeq)
	}

	// A second handoff of the same device has nothing to move.
	if err := w.Node.HandoffTo(standby, dev); err == nil {
		t.Fatal("handing off a device with no shard succeeded")
	}
}
