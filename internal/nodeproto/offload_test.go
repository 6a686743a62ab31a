package nodeproto

import (
	"context"
	"strings"
	"testing"

	"tinman/internal/audit"
	"tinman/internal/cor"
	"tinman/internal/dsm"
	"tinman/internal/taint"
	"tinman/internal/vm"
	"tinman/internal/vm/asm"
)

// loginSrc is the paper's running example (fig 5 / fig 11): hash the
// password and concatenate the request, which mints a derived cor on the
// node and comes back masked.
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

// deviceVM is the device half of DSM offloading: its own VM (odd heap IDs,
// asymmetric tainting) and DSM endpoint, resolving cors to the catalog's
// placeholders only.
type deviceVM struct {
	prog    *vm.Program
	vm      *vm.VM
	ep      *dsm.Endpoint
	catalog []CatalogEntry
	trigger taint.Tag
}

func (d *deviceVM) Fill(id string, length int) (string, taint.Tag, bool) {
	for _, e := range d.catalog {
		if e.ID == id {
			return e.Placeholder, taint.Bit(e.Bit), true
		}
	}
	return cor.Placeholder(id, length), taint.None, true
}

func (d *deviceVM) MaskID(*vm.Object) string { return "" }

// newDeviceVM assembles loginSrc on a device VM whose framework heap is
// large enough to take several warm-up chunks.
func newDeviceVM(t *testing.T, catalog []CatalogEntry) *deviceVM {
	t.Helper()
	prog, err := asm.Assemble("login", loginSrc)
	if err != nil {
		t.Fatal(err)
	}
	d := &deviceVM{prog: prog, catalog: catalog}
	d.vm = vm.New(vm.Config{Program: prog, Heap: vm.NewHeap(1, 2), Policy: taint.Asymmetric})
	d.vm.Hooks.OnTaintedAccess = func(tag taint.Tag, _ taint.Event) bool {
		d.trigger = tag
		return true
	}
	for i := 0; i < 40; i++ {
		d.vm.NewString(strings.Repeat("f", 200))
	}
	d.ep = dsm.NewEndpoint(dsm.DeviceSide, d.vm, d)
	return d
}

// runToTrigger runs the login on the device until its first access to the
// cor's placeholder stops it, and captures the trigger migration.
func (d *deviceVM) runToTrigger(t *testing.T, corID string) *dsm.Migration {
	t.Helper()
	var pw *vm.Object
	for _, e := range d.catalog {
		if e.ID == corID {
			pw = d.vm.NewTaintedString(e.Placeholder, taint.Bit(e.Bit))
			pw.CorID = e.ID
		}
	}
	if pw == nil {
		t.Fatalf("cor %s not in catalog", corID)
	}
	th, err := d.vm.NewThread(d.prog.Method("Bank", "login"), vm.RefVal(d.vm.NewString("alice")), vm.RefVal(pw))
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
	mig.TriggerTag = uint64(d.trigger)
	return mig
}

// TestDSMOffloadOverTCP runs the paper's central mechanism over a real
// socket: install the app, stream its heap as background warm-up chunks,
// offload the trigger migration as a warm hit, and resume the node's reply
// on the device VM to the masked login request.
func TestDSMOffloadOverTCP(t *testing.T) {
	ctx := context.Background()
	cl, srv := testServer(t)
	const dev, password = "phone-1", "hunter2!"
	register(t, srv, "pw", password, "bank.example")
	catalog, err := cl.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	d := newDeviceVM(t, catalog)

	inst, err := cl.Do(ctx, &Request{Op: OpInstall, DeviceID: dev, App: "login", Body: []byte(loginSrc)})
	if err != nil {
		t.Fatal(err)
	}
	if inst.AppHash != d.prog.Hash() || inst.CodeSize == 0 {
		t.Fatalf("install answered hash %q size %d, device computed %q", inst.AppHash, inst.CodeSize, d.prog.Hash())
	}
	if err := srv.Svc.BindApp("pw", inst.AppHash); err != nil {
		t.Fatal(err)
	}

	epoch := d.ep.BeginWarmup()
	chunks := 0
	for {
		c, err := d.ep.CaptureWarmup(8)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Do(ctx, &Request{Op: OpDSMWarmup, DeviceID: dev, App: "login", Body: c.Encode()}); err != nil {
			t.Fatalf("warm-up chunk %d: %v", c.Index, err)
		}
		chunks++
		if c.Final {
			break
		}
	}
	d.ep.WarmupAcked()
	if chunks < 2 || srv.Svc.WarmStats().Chunks != uint64(chunks) {
		t.Fatalf("streamed %d chunks, node applied %d", chunks, srv.Svc.WarmStats().Chunks)
	}

	mig := d.runToTrigger(t, "pw")
	if mig.WarmEpoch != epoch || mig.Initial {
		t.Fatalf("trigger migration not on the warm path: epoch %d (want %d), initial %v", mig.WarmEpoch, epoch, mig.Initial)
	}
	resp, err := cl.Do(ctx, &Request{Op: OpOffload, DeviceID: dev, App: "login", Body: mig.Encode()})
	if err != nil {
		t.Fatal(err)
	}
	if ws := srv.Svc.WarmStats(); ws.Hits != 1 || ws.Misses != 0 {
		t.Fatalf("warm stats = %+v, want one hit", ws)
	}
	if resp.Stats == nil || resp.Stats.Executed == 0 {
		t.Fatalf("offload reply carries no node stats: %+v", resp.Stats)
	}

	back, err := dsm.DecodeMigration(resp.Body)
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
	if out.Ref == nil || !strings.HasPrefix(out.Ref.CorID, "derived-pw") {
		t.Fatalf("result is not a masked derived cor: %+v", out)
	}
	if want := len("user=alice&hash=") + 64; len(out.Ref.Str) != want || strings.Contains(out.Ref.Str, apps256(password)) {
		t.Fatalf("device holds %q, want a %d-byte placeholder", out.Ref.Str, want)
	}

	allowed := 0
	for _, e := range srv.Svc.Audit.Find(audit.Query{CorID: "pw", DeviceID: dev}) {
		if e.Outcome == audit.OutcomeAllowed && e.Detail == "offloaded access" {
			allowed++
		}
	}
	if allowed != 1 {
		t.Fatalf("audit shows %d offloaded accesses, want 1", allowed)
	}
}

// offloadOnce installs loginSrc for dev through cl, binds corID to it on
// srv and offloads one cold login migration, which mints a derived cor on
// the node, returning the request (its minted ReqID included) and the
// node's reply.
func offloadOnce(t *testing.T, cl *ReconnectClient, srv *Server, dev, corID string) (*Request, *Response) {
	t.Helper()
	ctx := context.Background()
	catalog, err := cl.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	d := newDeviceVM(t, catalog)
	inst, err := cl.Do(ctx, &Request{Op: OpInstall, DeviceID: dev, App: "login", Body: []byte(loginSrc)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Svc.BindApp(corID, inst.AppHash); err != nil {
		t.Fatal(err)
	}
	req := &Request{Op: OpOffload, DeviceID: dev, App: "login", Body: d.runToTrigger(t, corID).Encode()}
	resp, err := cl.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Body) == 0 {
		t.Fatal("offload reply carries no migration")
	}
	return req, resp
}
