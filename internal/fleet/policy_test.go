package fleet

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"tinman/internal/policy"
)

// TestPolicyPushPropagation pushes a snapshot at the fleet and checks every
// member converges on the identical (version, hash) stamp, with per-member
// applied versions tracked.
func TestPolicyPushPropagation(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, "node-a", "node-b", "node-c")
	snap := &policy.Snapshot{
		Whitelist: map[string][]string{"pw": {"bank.com"}},
		Revoked:   []string{"dev-stolen"},
	}
	stamp, err := f.InstallPolicy(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	if stamp.Version == 0 || stamp.Hash == "" {
		t.Fatalf("empty stamp: %+v", stamp)
	}
	for _, id := range f.Members() {
		svc, _ := f.MemberService(id)
		if got := svc.Policy.Stamp(); got != stamp {
			t.Fatalf("member %s runs %+v, push assigned %+v", id, got, stamp)
		}
		// The snapshot's revocation is live on this member.
		err := svc.Policy.Check(policy.Access{CorID: "pw", DeviceID: "dev-stolen"})
		if d, ok := policy.IsDenial(err); !ok || d.Reason != policy.ReasonRevoked {
			t.Fatalf("member %s: revoked device not denied: %v", id, err)
		}
	}
	vers := f.PolicyVersions()
	for _, id := range f.Members() {
		if vers[id] != stamp.Version {
			t.Fatalf("applied versions %v, want all at %d", vers, stamp.Version)
		}
	}
}

// TestPolicyPushPartialAndRecover crashes a member, pushes a snapshot (the
// push reports the straggler but still lands everywhere reachable), then
// recovers the member and checks the admin-log replay brings it to the
// fleet version.
func TestPolicyPushPartialAndRecover(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, "node-a", "node-b", "node-c")
	if err := f.Crash("node-b"); err != nil {
		t.Fatal(err)
	}
	snap := &policy.Snapshot{Revoked: []string{"dev-stolen"}}
	stamp, err := f.InstallPolicy(ctx, snap)
	if err == nil {
		t.Fatal("partial push reported no error")
	}
	if stamp.Version == 0 {
		t.Fatal("partial push must still return the stamp the fleet converged on")
	}
	for _, id := range []string{"node-a", "node-c"} {
		svc, _ := f.MemberService(id)
		if got := svc.Policy.Stamp(); got != stamp {
			t.Fatalf("healthy member %s at %+v, want %+v", id, got, stamp)
		}
	}
	if vers := f.PolicyVersions(); vers["node-b"] == stamp.Version {
		t.Fatalf("down member recorded as applied: %v", vers)
	}

	if err := f.Recover("node-b"); err != nil {
		t.Fatal(err)
	}
	svc, _ := f.MemberService("node-b")
	if got := svc.Policy.Stamp(); got.Hash != stamp.Hash {
		t.Fatalf("recovered member runs hash %s, fleet pushed %s", got.Hash, stamp.Hash)
	}
	if vers := f.PolicyVersions(); vers["node-b"] != stamp.Version {
		t.Fatalf("recovered member not tracked as applied: %v", vers)
	}
}

// TestRetryPolicy covers transient unreachability: a member whose health
// probe is down misses the push (its process — and engine — stays alive),
// then RetryPolicy tops it up once the probe recovers.
func TestRetryPolicy(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, "node-a", "node-b", "node-c")
	up := false
	if err := f.SetHealthProbe("node-b", func() bool { return up }); err != nil {
		t.Fatal(err)
	}
	stamp, err := f.InstallPolicy(ctx, &policy.Snapshot{Revoked: []string{"dev-x"}})
	if err == nil {
		t.Fatal("push past an unreachable member reported no error")
	}

	// Nothing to retry while the member stays unreachable.
	if caught, _ := f.RetryPolicy(ctx); len(caught) != 0 {
		t.Fatalf("retry reached an unreachable member: %v", caught)
	}

	up = true
	caught, err := f.RetryPolicy(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(caught) != 1 || caught[0] != "node-b" {
		t.Fatalf("retry caught %v, want [node-b]", caught)
	}
	svc, _ := f.MemberService("node-b")
	if got := svc.Policy.Stamp(); got != stamp {
		t.Fatalf("retried member at %+v, want %+v", got, stamp)
	}
	if vers := f.PolicyVersions(); vers["node-b"] != stamp.Version {
		t.Fatalf("retried member not tracked: %v", vers)
	}
	// A second retry has nothing left to do.
	if caught, err := f.RetryPolicy(ctx); err != nil || len(caught) != 0 {
		t.Fatalf("idempotent retry: caught=%v err=%v", caught, err)
	}
}

// TestStalePushRejected pins the reordering guard: pushing an explicit
// version at or below the fleet's last accepted one is rejected by the
// assigning member before anything changes anywhere.
func TestStalePushRejected(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, "node-a", "node-b")
	stamp, err := f.InstallPolicy(ctx, &policy.Snapshot{Revoked: []string{"dev-1"}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.InstallPolicy(ctx, &policy.Snapshot{Version: stamp.Version, Revoked: []string{"dev-2"}})
	if !errors.Is(err, policy.ErrStaleSnapshot) {
		t.Fatalf("stale push = %v, want ErrStaleSnapshot", err)
	}
	for _, id := range f.Members() {
		svc, _ := f.MemberService(id)
		if err := svc.Policy.Check(policy.Access{CorID: "x", DeviceID: "dev-2"}); err != nil {
			t.Fatalf("member %s applied a rejected stale push: %v", id, err)
		}
	}
}

// TestFleetSetCorClass replicates a reclassification fleet-wide, including
// onto a member that recovers afterwards via the admin log.
func TestFleetSetCorClass(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, "node-a", "node-b")
	if err := f.RegisterCor(ctx, "pw", "hunter2!", "pw", "bank.com"); err != nil {
		t.Fatal(err)
	}
	if err := f.SetCorClass(ctx, "pw", "server-only"); err != nil {
		t.Fatal(err)
	}
	for _, id := range f.Members() {
		svc, _ := f.MemberService(id)
		if got := svc.Cors.Get("pw").Class; got != "server-only" {
			t.Fatalf("member %s: class = %q", id, got)
		}
		if svc.Cors.RestrictedMask().Empty() {
			t.Fatalf("member %s: restricted mask empty after reclassification", id)
		}
	}
	if err := f.Crash("node-b"); err != nil {
		t.Fatal(err)
	}
	if err := f.Recover("node-b"); err != nil {
		t.Fatal(err)
	}
	svc, _ := f.MemberService("node-b")
	if got := svc.Cors.Get("pw").Class; got != "server-only" {
		t.Fatalf("recovered member lost the class: %q", got)
	}
}

// TestRevocationPushedAtOneMemberDeniesOnAll is the fleet half of the
// revocation-propagation guarantee: a revocation applied through the fleet
// entry point is live on every member's policy engine, so the stolen device
// is cut off no matter which member its traffic reaches.
func TestRevocationPushedAtOneMemberDeniesOnAll(t *testing.T) {
	f := newTestFleet(t, "node-a", "node-b", "node-c")
	if err := f.RegisterCor(context.Background(), "pw", "hunter2!", "pw", "bank.com"); err != nil {
		t.Fatal(err)
	}
	if err := f.Revoke("dev-stolen"); err != nil {
		t.Fatal(err)
	}
	for _, id := range f.Members() {
		svc, _ := f.MemberService(id)
		err := svc.Policy.Check(policy.Access{CorID: "pw", DeviceID: "dev-stolen"})
		if d, ok := policy.IsDenial(err); !ok || d.Reason != policy.ReasonRevoked {
			t.Fatalf("member %s did not deny the revoked device: %v", id, err)
		}
	}
	if err := f.Restore("dev-stolen"); err != nil {
		t.Fatal(err)
	}
	for _, id := range f.Members() {
		svc, _ := f.MemberService(id)
		if err := svc.Policy.Check(policy.Access{CorID: "pw", DeviceID: "dev-stolen"}); err != nil {
			t.Fatalf("member %s still denies after restore: %v", id, err)
		}
	}
}

// deniesRevoked fails the test unless every member denies dev as revoked.
func deniesRevoked(t *testing.T, f *Fleet, dev string) {
	t.Helper()
	for _, id := range f.Members() {
		svc, _ := f.MemberService(id)
		err := svc.Policy.Check(policy.Access{CorID: "pw", DeviceID: dev})
		if d, ok := policy.IsDenial(err); !ok || d.Reason != policy.ReasonRevoked {
			t.Fatalf("member %s does not deny revoked %s: %v", id, dev, err)
		}
	}
}

// TestRevokeReachesUnreachableMember: a revocation made while a member's
// probe is down is reported as partial, and RetryPolicy delivers it once
// the member is reachable again.
func TestRevokeReachesUnreachableMember(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, "node-a", "node-b", "node-c")
	if err := f.RegisterCor(ctx, "pw", "hunter2!", "pw", "bank.com"); err != nil {
		t.Fatal(err)
	}
	up := false
	if err := f.SetHealthProbe("node-b", func() bool { return up }); err != nil {
		t.Fatal(err)
	}
	if err := f.Revoke("dev-stolen"); err == nil || !strings.Contains(err.Error(), "node-b") {
		t.Fatalf("revoke past an unreachable member = %v, want an error naming node-b", err)
	}
	up = true
	if caught, err := f.RetryPolicy(ctx); err != nil || !slices.Equal(caught, []string{"node-b"}) {
		t.Fatalf("retry caught %v, err %v; want [node-b]", caught, err)
	}
	deniesRevoked(t, f, "dev-stolen")
	if snap := f.PolicySnapshot(); snap == nil || !slices.Contains(snap.Revoked, "dev-stolen") {
		t.Fatalf("fleet document %+v does not list the revocation", snap)
	}
}

// TestRetryAfterRevokeKeepsRevocation: a member that missed a whole-document
// push and is then caught up by RetryPolicy must receive the current
// document — including a revocation made after the missed push — not the
// older one it missed.
func TestRetryAfterRevokeKeepsRevocation(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, "node-a", "node-b", "node-c")
	up := false
	if err := f.SetHealthProbe("node-b", func() bool { return up }); err != nil {
		t.Fatal(err)
	}
	if _, err := f.InstallPolicy(ctx, &policy.Snapshot{Whitelist: map[string][]string{"pw": {"bank.com"}}}); err == nil {
		t.Fatal("push past an unreachable member reported no error")
	}
	up = true
	if err := f.Revoke("dev-stolen"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RetryPolicy(ctx); err != nil {
		t.Fatal(err)
	}
	deniesRevoked(t, f, "dev-stolen")
}

// TestPushAfterFirstMemberLagged: a push made while the first member in
// config order is unreachable, followed by a second push with it back,
// leaves every member on the same (version, hash), enforcing the second
// document, with PolicyVersions agreeing.
func TestPushAfterFirstMemberLagged(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, "node-a", "node-b")
	up := false
	if err := f.SetHealthProbe("node-a", func() bool { return up }); err != nil {
		t.Fatal(err)
	}
	if _, err := f.InstallPolicy(ctx, &policy.Snapshot{Revoked: []string{"dev-1"}}); err == nil {
		t.Fatal("push past an unreachable member reported no error")
	}
	up = true
	stamp, err := f.InstallPolicy(ctx, &policy.Snapshot{Revoked: []string{"dev-2"}})
	if err != nil {
		t.Fatal(err)
	}
	vers := f.PolicyVersions()
	for _, id := range f.Members() {
		svc, _ := f.MemberService(id)
		if got := svc.Policy.Stamp(); got != stamp {
			t.Fatalf("member %s runs %+v, fleet pushed %+v", id, got, stamp)
		}
		if vers[id] != stamp.Version {
			t.Fatalf("applied versions %v, want all at v%d", vers, stamp.Version)
		}
	}
	deniesRevoked(t, f, "dev-2")
}

// TestConcurrentFleetPolicyWriters binds distinct app hashes from several
// goroutines at once; every member and the fleet's document must end up
// with all of them, at one (version, hash).
func TestConcurrentFleetPolicyWriters(t *testing.T) {
	f := newTestFleet(t, "node-a", "node-b", "node-c")
	const writers = 8
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := f.BindApp("pw", fmt.Sprintf("app-%d", i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := f.PolicySnapshot().Bindings["pw"]; len(got) != writers {
		t.Fatalf("fleet document binds %v, want all %d writers' hashes", got, writers)
	}
	a, _ := f.MemberService("node-a")
	for _, id := range f.Members() {
		svc, _ := f.MemberService(id)
		if got := svc.Policy.Export().Bindings["pw"]; len(got) != writers {
			t.Fatalf("member %s binds %v, want all %d writers' hashes", id, got, writers)
		}
		if svc.Policy.Stamp() != a.Policy.Stamp() {
			t.Fatalf("member %s at %+v, node-a at %+v", id, svc.Policy.Stamp(), a.Policy.Stamp())
		}
	}
}

// TestFailedRegistrationKeepsWhitelist: when registering a cor fails on one
// member, a member that did register it still enforces its whitelist —
// the whitelist reaches the fleet's document before any member holds the
// cor.
func TestFailedRegistrationKeepsWhitelist(t *testing.T) {
	ctx := context.Background()
	f := newTestFleet(t, "node-a", "node-b")
	// Exhaust node-b's taint bits, so registering one more cor fails there.
	b, _ := f.MemberService("node-b")
	for i := 0; i < 64; i++ {
		if _, err := b.RegisterCor(ctx, fmt.Sprintf("filler-%d", i), "secret", ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.RegisterCor(ctx, "pw", "hunter2!", "pw", "bank.com"); err == nil {
		t.Fatal("registration past an exhausted member reported no error")
	}
	a, _ := f.MemberService("node-a")
	if a.Cors.Get("pw") == nil {
		t.Fatal("node-a did not register the cor")
	}
	err := a.Policy.Check(policy.Access{CorID: "pw", Send: true, Domain: "evil.example"})
	if d, ok := policy.IsDenial(err); !ok || d.Reason != policy.ReasonDomainNotAllowed {
		t.Fatalf("node-a sends the registered cor to evil.example: %v", err)
	}
}
