package fleet

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"tinman/internal/audit"
	"tinman/internal/node"
)

func newTestFleet(t testing.TB, ids ...string) *Fleet {
	t.Helper()
	f, err := New(Config{
		MemberIDs:   ids,
		NodeOptions: node.Options{MalwareSeed: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestPlacementDeterministic checks the ring: a device always routes to the
// same healthy member, and placement spreads across the fleet.
func TestPlacementDeterministic(t *testing.T) {
	f := newTestFleet(t, "node-a", "node-b", "node-c")
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		dev := fmt.Sprintf("dev-%d", i)
		o1, err := f.Owner(dev)
		if err != nil {
			t.Fatal(err)
		}
		o2, _ := f.Owner(dev)
		if o1 != o2 {
			t.Fatalf("placement of %s flapped: %s then %s", dev, o1, o2)
		}
		counts[o1]++
	}
	for _, id := range f.Members() {
		if counts[id] < 3000*15/100 {
			t.Fatalf("placement skew: %v", counts)
		}
	}
}

// TestAdminReplication registers cors/bindings/revocations fleet-wide and
// checks every member agrees, including one that recovers from a crash.
func TestAdminReplication(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, "node-a", "node-b", "node-c")
	if err := f.RegisterCor(ctx, "pw", "hunter2!", "pw", "bank.com"); err != nil {
		t.Fatal(err)
	}
	if err := f.RegisterCor(ctx, "token", "api-token-1234", "api token", "api.bank.com"); err != nil {
		t.Fatal(err)
	}
	if err := f.Revoke("dev-stolen"); err != nil {
		t.Fatal(err)
	}
	for _, id := range f.Members() {
		svc, _ := f.MemberService(id)
		if svc.Cors.Get("pw") == nil {
			t.Fatalf("member %s missing registered cor", id)
		}
		got := svc.Cors.Get("token")
		if got == nil || got.Plaintext != "api-token-1234" {
			t.Fatalf("member %s: second cor not replicated verbatim", id)
		}
	}

	// A recovered member replays the admin log into its fresh Service.
	if err := f.Crash("node-b"); err != nil {
		t.Fatal(err)
	}
	if err := f.Recover("node-b"); err != nil {
		t.Fatal(err)
	}
	svc, _ := f.MemberService("node-b")
	if svc.Cors.Get("pw") == nil || svc.Cors.Get("token") == nil {
		t.Fatal("recovered member missing replicated cors")
	}
	if got := svc.Cors.Get("token"); got.Plaintext != "api-token-1234" {
		t.Fatal("recovered member has a different secret")
	}
}

// TestDrainMovesShards drains a member and checks its devices' shards (and
// their replay windows) land on other members with at-most-once intact.
func TestDrainMovesShards(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, "node-a", "node-b", "node-c")
	if err := f.RegisterCor(ctx, "pw", "hunter2!", "pw", "bank.com"); err != nil {
		t.Fatal(err)
	}

	// Touch enough devices that every member hosts some.
	var onA []string
	for i := 0; i < 60; i++ {
		dev := fmt.Sprintf("dev-%d", i)
		_, owner, err := f.ServiceFor(dev)
		if err != nil {
			t.Fatal(err)
		}
		if owner == "node-a" {
			onA = append(onA, dev)
		}
	}
	if len(onA) == 0 {
		t.Fatal("no devices landed on node-a")
	}

	// A non-idempotent op executes on node-a before the drain.
	marked := onA[0]
	svcA, _ := f.MemberService("node-a")
	executions := 0
	svcA.ReplayDo(marked, "req-drain-1", func() any { executions++; return "ok" })

	moved, err := f.Drain(ctx, "node-a")
	if err != nil {
		t.Fatal(err)
	}
	if moved < len(onA) {
		t.Fatalf("drained %d devices, expected at least %d", moved, len(onA))
	}
	if n := len(svcA.Devices()); n != 0 {
		t.Fatalf("node-a still hosts %d shards after drain", n)
	}
	for _, dev := range onA {
		_, owner, err := f.ServiceFor(dev)
		if err != nil {
			t.Fatal(err)
		}
		if owner == "node-a" {
			t.Fatalf("device %s still routed to drained member", dev)
		}
	}

	// The replayed request dedups on the new owner instead of re-executing.
	svcNew, _, err := f.ServiceFor(marked)
	if err != nil {
		t.Fatal(err)
	}
	_, replayed := svcNew.ReplayDo(marked, "req-drain-1", func() any { executions++; return "twice" })
	if !replayed || executions != 1 {
		t.Fatalf("at-most-once across drain: replayed=%v executions=%d", replayed, executions)
	}

	// Uncordon + rebalance restores ring placement.
	if err := f.Uncordon("node-a"); err != nil {
		t.Fatal(err)
	}
	back, err := f.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if back == 0 {
		t.Fatal("rebalance moved nothing back to the uncordoned member")
	}
}

// TestFleetSmoke is the make fleet-smoke acceptance gate: a 3-member fleet
// hosting 10k simulated devices survives one member crash and one explicit
// drain/rebalance with zero registered-cor loss, at-most-once replay across
// the drain, and a gap-free merged per-device audit sequence.
func TestFleetSmoke(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, "node-a", "node-b", "node-c")
	if err := f.RegisterCor(ctx, "pw", "hunter2!", "bank password", "bank.com"); err != nil {
		t.Fatal(err)
	}
	if err := f.BindApp("pw", "apphash-1"); err != nil {
		t.Fatal(err)
	}
	state := sessionState(t)

	const devices = 10_000
	reseal := func(dev string) error {
		svc, _, err := f.ServiceFor(dev)
		if err != nil {
			return err
		}
		_, err = svc.Reseal(ctx, node.ResealRequest{
			CorID: "pw", AppHash: "apphash-1", DeviceID: dev,
			Domain: "bank.com", State: state,
		})
		return err
	}
	owners := make(map[string]string, devices)
	for i := 0; i < devices; i++ {
		dev := fmt.Sprintf("dev-%05d", i)
		if err := reseal(dev); err != nil {
			t.Fatalf("warm-up reseal %s: %v", dev, err)
		}
		owners[dev], _ = f.Owner(dev)
	}
	for id, n := range f.DeviceCount() {
		if n < devices*15/100 {
			t.Fatalf("member %s hosts only %d/%d devices", id, n, devices)
		}
	}

	// --- crash one member; its devices fail over lazily ---
	if err := f.Crash("node-b"); err != nil {
		t.Fatal(err)
	}
	failedOver := 0
	for dev, owner := range owners {
		if owner != "node-b" {
			continue
		}
		failedOver++
		if err := reseal(dev); err != nil {
			t.Fatalf("reseal after failover %s: %v", dev, err)
		}
		if newOwner, _ := f.Owner(dev); newOwner == "node-b" {
			t.Fatalf("device %s still routed to crashed member", dev)
		}
	}
	if failedOver == 0 {
		t.Fatal("crash test vacuous: node-b hosted nothing")
	}

	// Zero cor loss: every surviving member still serves the vault.
	for _, id := range []string{"node-a", "node-c"} {
		svc, _ := f.MemberService(id)
		if svc.Cors.Get("pw") == nil {
			t.Fatalf("member %s lost the registered cor", id)
		}
	}

	// --- explicit drain/rebalance on a healthy member ---
	marked := ""
	for dev, owner := range owners {
		if owner == "node-c" {
			marked = dev
			break
		}
	}
	if marked == "" {
		t.Fatal("no device on node-c")
	}
	svcC, _ := f.MemberService("node-c")
	executions := 0
	svcC.ReplayDo(marked, "req-smoke-1", func() any { executions++; return "minted" })

	moved, err := f.Drain(ctx, "node-c")
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("drain moved nothing")
	}
	svcNew, _, err := f.ServiceFor(marked)
	if err != nil {
		t.Fatal(err)
	}
	if _, replayed := svcNew.ReplayDo(marked, "req-smoke-1", func() any { executions++; return "again" }); !replayed || executions != 1 {
		t.Fatalf("at-most-once across drain: replayed=%v executions=%d", replayed, executions)
	}
	if err := reseal(marked); err != nil {
		t.Fatalf("reseal after drain: %v", err)
	}
	if err := f.Uncordon("node-c"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}

	// Gap-free merged per-device audit sequence, across every member's log
	// (including the crashed one — its persisted log survives the process).
	sample := []string{marked}
	for dev, owner := range owners {
		if owner == "node-b" {
			sample = append(sample, dev)
			break
		}
	}
	for _, dev := range sample {
		var seqs []uint64
		for _, id := range f.Members() {
			svc, _ := f.MemberService(id)
			for _, e := range svc.Audit.Find(audit.Query{DeviceID: dev}) {
				if e.DeviceSeq == 0 {
					t.Fatalf("device entry without DeviceSeq: %v", e)
				}
				seqs = append(seqs, e.DeviceSeq)
			}
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		if len(seqs) < 2 {
			t.Fatalf("device %s: expected history on multiple members, got %d entries", dev, len(seqs))
		}
		for i, s := range seqs {
			if s != uint64(i+1) {
				t.Fatalf("device %s: audit seq gap in merged stream %v", dev, seqs)
			}
		}
	}
}
