package nodeproto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"tinman/internal/node"
)

// rawCall sends one hand-built request frame over a fresh connection and
// returns the node's reply head, raw and decoded. It plays a peer that
// speaks the frame format but holds no credential and none of this
// package's client API.
func rawCall(t *testing.T, addr string, msg map[string]any) ([]byte, *Response) {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(nc, msg); err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(nc, hdr[:]); err != nil {
		t.Fatal(err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n&bodyFlag != 0 || n > maxMessage {
		t.Fatalf("%s: reply frame word %#x, want a bodiless head", msg["op"], n)
	}
	head := make([]byte, n)
	if _, err := io.ReadFull(nc, head); err != nil {
		t.Fatal(err)
	}
	resp := new(Response)
	if err := json.Unmarshal(head, resp); err != nil {
		t.Fatal(err)
	}
	return head, resp
}

// TestNoCredentialFreeAdminOps: the device protocol carries no
// administration and no shard export. A peer holding no credential sends
// each op the protocol used to serve, with the fields it used to take;
// every one is refused as an unknown op, and the vault, the policy (its
// stamp, bindings, whitelists and revocation set) and the shard table stay
// as they were — the device's shard, holding a derived cor an offload
// minted, stays attached and no reply carries it. A reseal without a device
// ID attaches no shard either.
func TestNoCredentialFreeAdminOps(t *testing.T) {
	c, s := testServer(t)
	const dev, password = "phone-1", "hunter2!"
	register(t, s, "pw", password, "bank.example")
	if err := s.Svc.Revoke("stolen-phone"); err != nil {
		t.Fatal(err)
	}
	offloadOnce(t, c, s, dev, "pw")
	// The derived cor's plaintext is "user=alice&hash=<sha256(password)>".
	derivedHash := apps256(password)

	snapshot := func() string {
		var b strings.Builder
		for _, r := range s.Svc.Cors.List() {
			fmt.Fprintf(&b, "%+v\n", *r)
		}
		pol, err := json.Marshal(s.Svc.Policy.Export())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "stamp %+v policy %s\n", s.Svc.Policy.Stamp(), pol)
		for _, d := range s.Svc.Devices() {
			info, _ := s.Svc.Shard(d)
			fmt.Fprintf(&b, "shard %+v\n", info)
		}
		return b.String()
	}
	before := snapshot()
	if !strings.Contains(before, derivedHash) || !strings.Contains(before, "stolen-phone") {
		t.Fatalf("fixture lacks the derived cor or the revocation:\n%s", before)
	}
	if info, ok := s.Svc.Shard(dev); !ok || info.DerivedSeq == 0 {
		t.Fatalf("offload minted no derived cor in %s's shard: %+v", dev, info)
	}

	for _, msg := range []map[string]any{
		{"op": "register", "cor_id": "evil-pw", "plaintext": "attacker-secret", "description": "x", "whitelist": []string{"evil.example"}},
		{"op": "generate", "cor_id": "evil-gen", "length": 16, "whitelist": []string{"evil.example"}},
		{"op": "bind", "cor_id": "pw", "app_hash": "evil-app"},
		{"op": "revoke", "device_id": dev},
		{"op": "restore", "device_id": "stolen-phone"},
		{"op": "derive", "parent_id": "pw", "cor_id": "pw-hash", "description": "sha256-hex"},
		{"op": "policy_install", "policy": map[string]any{}},
		{"op": "policy_version"},
		{"op": "set_class", "cor_id": "pw", "class": "public"},
		{"op": "handoff_export", "device_id": dev},
		{"op": "handoff_import", "shard": map[string]any{"device_id": "intruder"}},
	} {
		head, resp := rawCall(t, s.Addr(), msg)
		if err := resp.Err(); !errors.Is(err, node.ErrBadRequest) || !strings.Contains(resp.Error, "unknown op") {
			t.Errorf("%s answered %s, want an unknown-op bad request", msg["op"], head)
		}
		if bytes.Contains(head, []byte(`"shard"`)) || bytes.Contains(head, []byte(derivedHash)) || bytes.Contains(head, []byte(password)) {
			t.Errorf("%s reply carries a shard or a secret: %s", msg["op"], head)
		}
	}
	if after := snapshot(); after != before {
		t.Fatalf("removed ops changed node state:\nbefore\n%s\nafter\n%s", before, after)
	}

	device, _ := establishSession(t)
	if _, err := c.Reseal("pw", device.Export(), "", "", "bank.example", "", 0); !errors.Is(err, node.ErrBadRequest) {
		t.Fatalf("reseal without device_id: %v, want a bad request", err)
	}
	if after := snapshot(); after != before {
		t.Fatalf("reseal without device_id changed node state:\nbefore\n%s\nafter\n%s", before, after)
	}
}
