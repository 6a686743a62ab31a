package nodeproto

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"testing"

	"tinman/internal/node"
	"tinman/internal/policy"
)

// dialMembers opens one client per fleet member, keyed by member ID.
func dialMembers(t *testing.T, members map[string]string) map[string]*ReconnectClient {
	t.Helper()
	out := make(map[string]*ReconnectClient, len(members))
	for id, addr := range members {
		out[id] = dialTest(t, addr)
	}
	return out
}

// TestWireRevocationPropagates is the wire half of the revocation
// guarantee: OpRevoke sent to ONE member's server fans out through the
// control plane, so the stolen device's reseals are denied by whichever
// member owns its shard — and the denial carries the stable numeric code.
func TestWireRevocationPropagates(t *testing.T) {
	ctx := context.Background()
	f, members, state, shutdown, err := StartFleetThroughput(3)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	clients := dialMembers(t, members)

	const dev = "ctl-dev-stolen"
	owner, err := f.Owner(dev)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a member that is NOT the device's owner to push the revocation
	// at — propagation, not local effect, is what is under test.
	pushAt := ""
	for id := range clients {
		if id != owner {
			pushAt = id
			break
		}
	}
	if err := clients[pushAt].Revoke(dev); err != nil {
		t.Fatal(err)
	}

	// Every member's engine denies the device.
	for _, id := range f.Members() {
		svc, _ := f.MemberService(id)
		if err := svc.Policy.Check(policy.Access{CorID: benchCor, DeviceID: dev}); err == nil {
			t.Fatalf("member %s does not deny the revoked device", id)
		}
	}

	// A reseal at the owner is denied over the wire with the numeric code.
	_, err = clients[owner].ResealRawContext(ctx, benchCor, state, "bench-app", dev, "bench.example", "", 0)
	d, ok := IsDenied(err)
	if !ok {
		t.Fatalf("reseal for revoked device = %v, want denial", err)
	}
	if !errors.Is(err, node.ErrRevoked) {
		t.Fatalf("denial does not map to node.ErrRevoked: %v", err)
	}
	if want := policy.ReasonRevoked.Code(); d.Code != want {
		t.Fatalf("wire denial code = %d, want %d", d.Code, want)
	}

	// Restore pushed at yet another member re-enables the device everywhere.
	if err := clients[pushAt].Restore(dev); err != nil {
		t.Fatal(err)
	}
	if _, err := clients[owner].ResealRawContext(ctx, benchCor, state, "bench-app", dev, "bench.example", "", 0); err != nil {
		t.Fatalf("reseal after restore: %v", err)
	}
}

// TestWirePolicyInstallPropagates pushes a snapshot through one member's
// wire server and checks every member answers OpPolicyVersion with the
// identical stamp.
func TestWirePolicyInstallPropagates(t *testing.T) {
	ctx := context.Background()
	_, members, _, shutdown, err := StartFleetThroughput(3)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	clients := dialMembers(t, members)

	snap := &policy.Snapshot{
		Whitelist: map[string][]string{benchCor: {"bench.example"}},
		Revoked:   []string{"ctl-dev-x"},
	}
	var pushClient *ReconnectClient
	for _, c := range clients {
		pushClient = c
		break
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	installed, err := pushClient.Do(ctx, &Request{Op: OpPolicyInstall, Policy: raw})
	if err != nil {
		t.Fatal(err)
	}
	ver, hash := installed.PolicyVersion, installed.PolicyHash
	if ver == 0 || hash == "" {
		t.Fatalf("install returned empty stamp: v%d %q", ver, hash)
	}
	for id, c := range clients {
		got, err := c.Do(ctx, &Request{Op: OpPolicyVersion})
		if err != nil {
			t.Fatal(err)
		}
		if got.PolicyVersion != ver || got.PolicyHash != hash {
			t.Fatalf("member %s at v%d %s, push assigned v%d %s", id, got.PolicyVersion, got.PolicyHash, ver, hash)
		}
	}
}

// TestWireClassRoundTrip registers a cor with a class over the wire and
// checks the catalog carries it, then reclassifies via OpSetClass.
func TestWireClassRoundTrip(t *testing.T) {
	ctx := context.Background()
	srv := NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	c := dialTest(t, l.Addr().String())

	if _, err := c.Do(ctx, &Request{Op: OpRegister, CorID: "pw", Plaintext: "hunter2!",
		Description: "pw", Class: "server-only"}); err != nil {
		t.Fatal(err)
	}
	classOf := func(id string) string {
		t.Helper()
		entries, err := c.Catalog()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.ID == id {
				return e.Class
			}
		}
		t.Fatalf("cor %s not in catalog", id)
		return ""
	}
	if got := classOf("pw"); got != "server-only" {
		t.Fatalf("registered class = %q, want server-only", got)
	}
	setClass := func(class string) error {
		_, err := c.Do(ctx, &Request{Op: OpSetClass, CorID: "pw", Class: class})
		return err
	}
	if err := setClass("sensitive"); err != nil {
		t.Fatal(err)
	}
	if got := classOf("pw"); got != "sensitive" {
		t.Fatalf("reclassified to %q, want sensitive", got)
	}
	if err := setClass("bogus"); err == nil {
		t.Fatal("unknown class accepted")
	}
}
