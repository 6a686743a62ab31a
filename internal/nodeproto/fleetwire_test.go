package nodeproto

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"tinman/internal/audit"
)

// TestFleetWire drives the full wire-level fleet path: a 3-member fleet
// behind real TCP servers, a fleet client following not-owner redirects,
// at-most-once reseals across a drain, and a merged per-device audit
// stream ordered by the sequence that travels with the shard.
func TestFleetWire(t *testing.T) {
	ctx := context.Background()
	f, members, state, shutdown, err := StartFleetThroughput(3)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	fc := DialFleet(members, time.Second, ReconnectConfig{RequestTimeout: 5 * time.Second, Heartbeat: -1})
	defer fc.Close()

	// Devices route to their fleet owner over the wire, whichever member
	// the client contacted first.
	devs := []string{"wire-dev-a", "wire-dev-b", "wire-dev-c", "wire-dev-d", "wire-dev-e"}
	for _, dev := range devs {
		rec, member, rerr := fc.Reseal(ctx, benchCor, state, "bench-app", dev, "bench.example", "", 0)
		if rerr != nil {
			t.Fatalf("reseal %s: %v", dev, rerr)
		}
		if len(rec) == 0 {
			t.Fatalf("reseal %s: empty record", dev)
		}
		owner, oerr := f.Owner(dev)
		if oerr != nil {
			t.Fatal(oerr)
		}
		if member != owner {
			t.Fatalf("device %s served by %s, fleet owner is %s", dev, member, owner)
		}
	}

	// A request sent straight to a non-owner member is refused with the
	// owner in the redirect hint, not silently served.
	dev := devs[0]
	owner, _ := f.Owner(dev)
	nonOwner := ""
	for _, id := range fc.Members() {
		if id != owner {
			nonOwner = id
			break
		}
	}
	req := &Request{Op: OpReseal, CorID: benchCor, State: state,
		AppHash: "bench-app", DeviceID: dev, Domain: "bench.example",
		ReqID: "wire-req-1"}
	rc, _ := fc.Member(nonOwner)
	if _, err := rc.Do(ctx, req); err == nil {
		t.Fatal("non-owner served a device-keyed request")
	} else if got, ok := RedirectOwner(err); !ok || got != owner {
		t.Fatalf("expected redirect to %s, got %v", owner, err)
	}

	// The identical request (same ReqID) lands on the owner; a replay of it
	// dedups in the shard's window — the device's audit history must not
	// grow on the second send.
	rcOwner, _ := fc.Member(owner)
	if _, err := rcOwner.Do(ctx, req); err != nil {
		t.Fatalf("reseal on owner: %v", err)
	}
	svcOwner, _ := f.MemberService(owner)
	before := len(svcOwner.Audit.Find(audit.Query{DeviceID: dev}))
	if _, err := rcOwner.Do(ctx, req); err != nil {
		t.Fatalf("replayed reseal: %v", err)
	}
	if after := len(svcOwner.Audit.Find(audit.Query{DeviceID: dev})); after != before {
		t.Fatalf("replayed request re-executed: %d audit entries, was %d", after, before)
	}

	// Drain the owner: the shard (and its replay window) moves, the next
	// send of the same ReqID redirects to the new owner and still dedups.
	if _, err := f.Drain(ctx, owner); err != nil {
		t.Fatal(err)
	}
	resp, served, err := fc.doDevice(ctx, dev, req)
	if err != nil || !resp.OK {
		t.Fatalf("reseal after drain: %v", err)
	}
	if served == owner {
		t.Fatalf("drained member %s still serving", owner)
	}
	svcNew, _ := f.MemberService(served)
	total := 0
	for _, id := range fc.Members() {
		svc, _ := f.MemberService(id)
		total += len(svc.Audit.Find(audit.Query{DeviceID: dev}))
	}
	if total != before {
		t.Fatalf("replayed request re-executed across drain: %d audit entries fleet-wide, was %d", total, before)
	}
	if len(svcNew.Devices()) == 0 {
		t.Fatalf("new owner %s hosts no shards after drain", served)
	}

	// Fresh traffic for the device serves on the new owner and the merged
	// wire audit stream is gap-free in per-device order.
	if _, _, err := fc.Reseal(ctx, benchCor, state, "bench-app", dev, "bench.example", "", 0); err != nil {
		t.Fatalf("fresh reseal after drain: %v", err)
	}
	entries, err := fc.AuditLog(ctx, "", dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("expected merged audit history, got %d entries", len(entries))
	}
	for i, e := range entries {
		if e.DeviceSeq != uint64(i+1) {
			t.Fatalf("merged wire audit stream has a gap at %d: %+v", i, entries)
		}
	}

	// who_owns over the wire answers the fleet's routing, from any member.
	got, err := fc.WhoOwns(ctx, dev)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := f.Owner(dev); got != want {
		t.Fatalf("WhoOwns = %s, fleet says %s", got, want)
	}
}

// TestWireHandoffExportImport moves a device shard between two served
// nodes the way fleet.Handoff does, in process — DetachShard on one node,
// ImportShard on the other; the device protocol carries no shard export —
// and checks what a device sees over the wire afterwards: the per-device
// audit sequence continues on the importer, and an offload executed before
// the move replays — migration bytes and all — instead of running again.
func TestWireHandoffExportImport(t *testing.T) {
	ctx := context.Background()
	newNode := func() (*Server, *ReconnectClient) {
		t.Helper()
		srv := NewServer()
		if _, err := srv.Svc.RegisterCor(ctx, benchCor, "hunter2-benchmark!", "cor", "bench.example"); err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		t.Cleanup(func() { srv.Close() })
		return srv, dialTest(t, l.Addr().String())
	}
	srvA, cA := newNode()
	srvB, cB := newNode()

	state, err := PrepareThroughputServer(srvA)
	if err != nil {
		t.Fatal(err)
	}

	const dev = "handoff-dev"
	for i := 0; i < 2; i++ {
		if _, err := cA.ResealRawContext(ctx, benchCor, state, "bench-app", dev, "bench.example", "", 0); err != nil {
			t.Fatalf("reseal %d on A: %v", i, err)
		}
	}
	offload, offloaded := offloadOnce(t, cA, srvA, dev, benchCor)
	onA := srvA.Svc.Audit.Find(audit.Query{DeviceID: dev})
	if len(onA) == 0 {
		t.Fatal("no audit history on A")
	}
	maxSeq := onA[len(onA)-1].DeviceSeq

	exp, err := srvA.Svc.DetachShard(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srvA.Svc.Shard(dev); ok {
		t.Fatal("shard still attached on A after detach")
	}
	if err := srvB.Svc.ImportShard(ctx, exp); err != nil {
		t.Fatal(err)
	}
	if _, ok := srvB.Svc.Shard(dev); !ok {
		t.Fatal("shard not attached on B after import")
	}

	// The client retries the offload (same ReqID) against the new owner:
	// the shard's replay window answers with the recorded reply, body
	// included, and nothing executes or audits again.
	replayed, err := cB.Do(ctx, offload)
	if err != nil {
		t.Fatalf("offload replay on B: %v", err)
	}
	if !bytes.Equal(replayed.Body, offloaded.Body) || replayed.Stats == nil || *replayed.Stats != *offloaded.Stats {
		t.Fatalf("replayed offload reply differs: %d body bytes, stats %+v; original %d, %+v",
			len(replayed.Body), replayed.Stats, len(offloaded.Body), offloaded.Stats)
	}
	if n := len(srvB.Svc.Audit.Find(audit.Query{DeviceID: dev})); n != 0 {
		t.Fatalf("replayed offload re-executed on B: %d audit entries", n)
	}

	// The sequence continues where the exporter stopped.
	if _, err := cB.ResealRawContext(ctx, benchCor, state, "bench-app", dev, "bench.example", "", 0); err != nil {
		t.Fatalf("reseal on B after import: %v", err)
	}
	onB := srvB.Svc.Audit.Find(audit.Query{DeviceID: dev})
	if len(onB) == 0 {
		t.Fatal("no audit history on B")
	}
	if got := onB[len(onB)-1].DeviceSeq; got != maxSeq+1 {
		t.Fatalf("DeviceSeq after import = %d, want %d", got, maxSeq+1)
	}

	// A double import is refused rather than forking the shard.
	if err := srvB.Svc.ImportShard(ctx, exp); err == nil {
		t.Fatal("importing over an existing shard succeeded")
	}
}
