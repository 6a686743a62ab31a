package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"tinman/internal/netsim"
	"tinman/internal/node"
	"tinman/internal/nodeproto"
	"tinman/internal/taint"
	"tinman/internal/tcpsim"
	"tinman/internal/vm"
)

const tinyApp = `
class Tiny
  method double 1 4
    const r1, 2
    mul r2, r0, r1
    return r2
  end
  method touch 1 4
    const r1, 0
    charat r2, r0, r1
    return r2
  end
  method notify 0 2
    native r0, ui_notify
    const r1, 7
    return r1
  end
end`

func newTestWorld(t *testing.T, enabled bool) *World {
	t.Helper()
	w, err := NewWorld(Config{Seed: 1, Profile: netsim.WiFi, TinManEnabled: enabled})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestFrameEncoding(t *testing.T) {
	f := EncodeFrame(HSClientHello, []byte("payload"))
	if _, n, _ := NextFrame(f[:3]); n != 0 { // partial
		t.Fatal("partial frame parsed")
	}
	got, n, err := NextFrame(f)
	if err != nil || n != len(f) || got.Type != HSClientHello || string(got.Payload) != "payload" {
		t.Fatalf("frame = %+v n=%d err=%v", got, n, err)
	}
	// Garbage length rejected.
	if _, _, err := NextFrame([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1}); err == nil {
		t.Fatal("implausible frame length accepted")
	}
}

// connPair joins two fresh hosts by a Wi-Fi link and returns the
// simulation with both ends of an established connection between them.
func connPair(t *testing.T) (*netsim.Net, *tcpsim.Conn, *tcpsim.Conn) {
	t.Helper()
	n := netsim.New(1)
	a, b := n.AddHost("10.0.0.2"), n.AddHost("10.8.0.1")
	n.Connect(a, b, netsim.WiFi)
	l, err := tcpsim.NewStack(n, b).Listen(ControlPort)
	if err != nil {
		t.Fatal(err)
	}
	var server *tcpsim.Conn
	l.OnAccept = func(c *tcpsim.Conn) { server = c }
	client, err := tcpsim.NewStack(n, a).Dial("10.8.0.1", ControlPort)
	if err != nil {
		t.Fatal(err)
	}
	if !n.RunUntil(func() bool { return client.Established() && server != nil }) {
		t.Fatal("handshake did not complete")
	}
	return n, client, server
}

// TestControlStreamSplitsFrames writes two control messages — one with a
// binary body, one without — onto a simulated connection in 7-byte
// writes: the receiver decodes each whole, in order, only once all of its
// bytes have arrived, and leaves nothing buffered.
func TestControlStreamSplitsFrames(t *testing.T) {
	a := &nodeproto.Request{Op: nodeproto.OpOffload, Seq: 1, DeviceID: "d", App: "tiny", Body: []byte{0, 1, 2, 0xff}}
	b := &nodeproto.Request{Op: nodeproto.OpCatalog, Seq: 2}
	var wire []byte
	var ends []int
	for _, m := range []*nodeproto.Request{a, b} {
		enc, err := encodeMsg(m)
		if err != nil {
			t.Fatal(err)
		}
		wire = append(wire, enc...)
		ends = append(ends, len(wire))
	}
	n, client, server := connPair(t)
	var got []*nodeproto.Request
	consumed := 0
	for i := 0; i < len(wire); i += 7 {
		end := min(i+7, len(wire))
		if err := client.Write(wire[i:end]); err != nil {
			t.Fatal(err)
		}
		if !n.RunUntil(func() bool { return consumed+server.Readable() == end }) {
			t.Fatalf("bytes up to %d never arrived", end)
		}
		for {
			req := new(nodeproto.Request)
			size, err := readMsg(server, req)
			if err != nil {
				t.Fatal(err)
			}
			if size == 0 {
				break
			}
			consumed += size
			got = append(got, req)
		}
		whole := 0
		for _, e := range ends {
			if e <= end {
				whole++
			}
		}
		if len(got) != whole {
			t.Fatalf("after %d bytes: decoded %d messages, want %d", end, len(got), whole)
		}
	}
	if len(got) != 2 || got[0].Op != a.Op || !bytes.Equal(got[0].Body, a.Body) || got[1].Seq != 2 || got[1].Body != nil {
		t.Fatalf("decoded %+v", got)
	}
	if server.Readable() != 0 {
		t.Fatalf("%d bytes left buffered", server.Readable())
	}
}

// TestHandshakeFramesThenRecords: a stream switches from framed handshake
// messages to self-delimiting TLS records without losing a byte — parsing
// the frame on a simulated connection discards exactly the frame, and the
// record bytes that arrived with it stay buffered.
func TestHandshakeFramesThenRecords(t *testing.T) {
	n, client, server := connPair(t)
	f := EncodeFrame(1, []byte("a"))
	if err := client.Write(append(append([]byte(nil), f...), 'X', 'Y')); err != nil {
		t.Fatal(err)
	}
	if !n.RunUntil(func() bool { return server.Readable() == len(f)+2 }) {
		t.Fatal("bytes never arrived")
	}
	got, size, err := NextFrame(server.Buffered())
	if err != nil || size != len(f) || string(got.Payload) != "a" {
		t.Fatalf("frame = %+v, %d, %v", got, size, err)
	}
	server.Discard(size)
	if string(server.Buffered()) != "XY" {
		t.Fatalf("rest = %q", server.Buffered())
	}
}

func TestWorldDefaults(t *testing.T) {
	w := newTestWorld(t, true)
	if !w.TinManEnabled() {
		t.Fatal("enabled flag lost")
	}
	if w.Profile().Name != "wifi" {
		t.Fatalf("profile = %s", w.Profile().Name)
	}
	if w.Cost.DeviceNsPerInstr == 0 || w.Cost.ServerProcessing == 0 {
		t.Fatal("cost model not defaulted")
	}
	if w.Device == nil || w.Node == nil || w.Battery == nil {
		t.Fatal("world incomplete")
	}
}

func TestResolve(t *testing.T) {
	w := newTestWorld(t, false)
	w.AddServerHost("x.example", "192.0.2.1")
	addr, err := w.Resolve("x.example")
	if err != nil || addr != "192.0.2.1" {
		t.Fatalf("resolve = %q, %v", addr, err)
	}
	if _, err := w.Resolve("nope.example"); err == nil {
		t.Fatal("unknown domain resolved")
	}
	if got := w.ReverseResolve("192.0.2.1"); got != "x.example" {
		t.Fatalf("reverse = %q", got)
	}
	if got := w.ReverseResolve("203.0.113.9"); got != "203.0.113.9" {
		t.Fatalf("reverse of unknown = %q", got)
	}
}

func TestInstallAndRunLocal(t *testing.T) {
	// With TinMan disabled, apps run entirely on the device.
	w := newTestWorld(t, false)
	app, err := w.Device.InstallApp("tiny", tinyApp, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Run("Tiny", "double", vm.IntVal(21))
	if err != nil || res.Int != 42 {
		t.Fatalf("res=%v err=%v", res, err)
	}
	if app.Report.Migrations != 0 {
		t.Fatal("baseline migrated")
	}
	if app.Report.Total <= 0 {
		t.Fatal("no virtual time accounted")
	}
}

func TestInstallDuplicateFails(t *testing.T) {
	w := newTestWorld(t, false)
	if _, err := w.Device.InstallApp("tiny", tinyApp, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Device.InstallApp("tiny", tinyApp, 8); err == nil {
		t.Fatal("duplicate install accepted")
	}
}

func TestInstallBadSourceFails(t *testing.T) {
	w := newTestWorld(t, false)
	if _, err := w.Device.InstallApp("bad", "garbage", 8); err == nil {
		t.Fatal("bad source installed")
	}
}

func TestOffloadTouchingCor(t *testing.T) {
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
	// touch reads the first character of the password: offloads, computes
	// on the node with the plaintext, and the result (a tainted primitive)
	// comes back masked.
	res, err := app.Run("Tiny", "touch", pw)
	if err != nil {
		t.Fatal(err)
	}
	if app.Report.Migrations == 0 {
		t.Fatal("no offload happened")
	}
	if res.Int == int64('s') && res.Tag.Empty() {
		t.Fatal("plaintext first byte returned to device untainted")
	}
}

func TestNativeBouncesFromNode(t *testing.T) {
	w := newTestWorld(t, true)
	app, err := w.Device.InstallApp("tiny", tinyApp, 8)
	if err != nil {
		t.Fatal(err)
	}
	// notify never touches a cor: runs locally, native executes on device.
	res, err := app.Run("Tiny", "notify")
	if err != nil || res.Int != 7 {
		t.Fatalf("res=%v err=%v", res, err)
	}
	if app.Report.Migrations != 0 {
		t.Fatal("untainted run should not migrate")
	}
}

func TestCorArgRequiresCatalogOrBaseline(t *testing.T) {
	w := newTestWorld(t, true)
	app, _ := w.Device.InstallApp("tiny", tinyApp, 8)
	if _, err := w.Device.CorArg(app, "nope"); err == nil {
		t.Fatal("unknown cor materialized")
	}

	wb := newTestWorld(t, false)
	appb, _ := wb.Device.InstallApp("tiny", tinyApp, 8)
	if _, err := wb.Device.CorArg(appb, "pw"); err == nil {
		t.Fatal("baseline without plaintext materialized a cor")
	}
}

func TestBaselineCorArgIsPlaintext(t *testing.T) {
	w, err := NewWorld(Config{
		Seed: 2, TinManEnabled: false,
		BaselinePlaintexts: map[string]string{"pw": "real-secret"},
	})
	if err != nil {
		t.Fatal(err)
	}
	app, _ := w.Device.InstallApp("tiny", tinyApp, 8)
	v, err := w.Device.CorArg(app, "pw")
	if err != nil {
		t.Fatal(err)
	}
	if v.Ref.Str != "real-secret" || !v.Ref.Tag.Empty() {
		t.Fatalf("baseline cor = %v", v.Ref)
	}
}

func TestMaliciousAppRefusedAtInstall(t *testing.T) {
	// An app whose dex hash is in the malware DB is rejected when shipped
	// to the node (§3.4).
	w := newTestWorld(t, true)
	app, err := w.Device.InstallApp("tiny", tinyApp, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Poison the DB with this exact hash, then try installing a renamed
	// copy (same code => same hash).
	w.Node.Svc.Malware.Add(app.Hash(), "TestTrojan")
	_, err = w.Device.InstallApp("tiny2", tinyApp, 8)
	if err == nil || !strings.Contains(err.Error(), "malware") || !errors.Is(err, node.ErrMalware) {
		t.Fatalf("err = %v, want malware rejection", err)
	}
}

func TestOfflineDeviceFailsClosed(t *testing.T) {
	// §5.4 connectivity requirement: with the node unreachable, cor access
	// fails with a clear error instead of falling back to anything unsafe.
	w := newTestWorld(t, true)
	if _, err := w.Node.RegisterCor("pw", "secret12", ""); err != nil {
		t.Fatal(err)
	}
	if err := w.Device.RefreshCatalog(); err != nil {
		t.Fatal(err)
	}
	app, _ := w.Device.InstallApp("tiny", tinyApp, 8)
	w.Node.BindApp("pw", app.Hash())
	pw, _ := w.Device.CorArg(app, "pw")

	// The node drops off the network entirely ("during a flight"). A mere
	// severed connection is no longer enough: the channel reconnects and
	// retries through those.
	w.CrashNode()

	_, err := app.Run("Tiny", "touch", pw)
	if err == nil {
		t.Fatal("offline cor access succeeded")
	}
	if !errors.Is(err, node.ErrNodeUnavailable) {
		t.Fatalf("err = %v, want node.ErrNodeUnavailable", err)
	}
	// And the placeholder is all the device ever had.
	if pw.Ref.Str == "secret12" || !strings.HasPrefix(pw.Ref.Str, "TINMAN-P") {
		t.Fatalf("device holds %q, want a placeholder", pw.Ref.Str)
	}
}

func TestSelectiveTainting(t *testing.T) {
	// §3.5: "adopt selectively tainting, which enables tainting only for
	// certain security critical apps". A device configured with the Off
	// policy runs apps untainted; cors cannot be used there.
	w, err := NewWorld(Config{Seed: 3, TinManEnabled: true, DevicePolicy: taint.Off})
	if err != nil {
		t.Fatal(err)
	}
	app, err := w.Device.InstallApp("tiny", tinyApp, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Run("Tiny", "double", vm.IntVal(5))
	if err != nil || res.Int != 10 {
		t.Fatalf("res=%v err=%v", res, err)
	}
	if app.Report.Migrations != 0 {
		t.Fatal("untainted app migrated")
	}
	if !app.VM().Tracking() == false {
		t.Fatal("device VM should not be tracking")
	}
}

func TestReportOffloadedFraction(t *testing.T) {
	r := Report{DeviceCalls: 90, NodeCalls: 10}
	if f := r.OffloadedFraction(); f != 0.1 {
		t.Fatalf("fraction = %v", f)
	}
	var empty Report
	if empty.OffloadedFraction() != 0 {
		t.Fatal("empty report fraction")
	}
}

func TestCostModelDefaults(t *testing.T) {
	cm := DefaultCostModel()
	if cm.NodeNsPerInstr >= cm.DeviceNsPerInstr {
		t.Fatal("node should be faster than device")
	}
	if cm.SSLStateSetup <= 0 || cm.NodeInjectSetup <= 0 {
		t.Fatal("SSL cost knobs unset")
	}
}
