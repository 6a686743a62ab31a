package nodeproto

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tinman/internal/cor"
	"tinman/internal/node"
	"tinman/internal/tlssim"
)

// testServer starts a server on a loopback listener and returns a client
// for it plus the server for direct inspection.
func testServer(t *testing.T) (*ReconnectClient, *Server) {
	t.Helper()
	s := NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return dialTest(t, l.Addr().String()), s
}

// dialTest opens a client to addr without the heartbeat prober, closed at
// test cleanup.
func dialTest(t *testing.T, addr string) *ReconnectClient {
	t.Helper()
	c := DialReconnect(addr, time.Second, ReconnectConfig{Heartbeat: -1})
	t.Cleanup(func() { c.Close() })
	return c
}

// register initializes a cor on the server's service — the boot-time,
// safe-environment setup (§2.3) that tinman-node -cors performs; the
// device protocol has no registration op.
func register(t *testing.T, s *Server, id, plaintext string, whitelist ...string) {
	t.Helper()
	if _, err := s.Svc.RegisterCor(context.Background(), id, plaintext, id+" description", whitelist...); err != nil {
		t.Fatal(err)
	}
}

// apps256 is the sha256-hex derivation the node computes.
func apps256(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestPing(t *testing.T) {
	c, _ := testServer(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterAndCatalog: a cor registered on the node reaches the device
// as catalog metadata and a placeholder, never its plaintext.
func TestRegisterAndCatalog(t *testing.T) {
	c, s := testServer(t)
	register(t, s, "bank-pw", "hunter2!", "bank.com")
	cat, err := c.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(cat) != 1 || cat[0].ID != "bank-pw" || cat[0].Description != "bank-pw description" {
		t.Fatalf("catalog = %+v", cat)
	}
	if cat[0].Placeholder == "hunter2!" || len(cat[0].Placeholder) != 8 {
		t.Fatalf("placeholder = %q", cat[0].Placeholder)
	}
}

// TestWireClassRoundTrip: the catalog carries each cor's sensitivity class
// over the wire, and a reclassification reaches the next catalog fetch.
func TestWireClassRoundTrip(t *testing.T) {
	ctx := context.Background()
	c, s := testServer(t)
	register(t, s, "pw", "hunter2!")
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
	for _, class := range []cor.Class{cor.ClassServerOnly, cor.ClassSensitive} {
		if err := s.Svc.SetCorClass(ctx, "pw", class); err != nil {
			t.Fatal(err)
		}
		if got := classOf("pw"); got != string(class) {
			t.Fatalf("catalog class = %q, want %q", got, class)
		}
	}
}

// establishSession builds a client/server TLS session pair for reseal tests.
func establishSession(t *testing.T) (*tlssim.Session, *tlssim.Session) {
	t.Helper()
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cs, ss, _, err := tlssim.Handshake(tlssim.ClientConfig{MinVersion: tlssim.TLS11}, tlssim.ServerConfig{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	return cs, ss
}

func TestResealEndToEnd(t *testing.T) {
	c, s := testServer(t)
	register(t, s, "cc", "4111111111111111", "shop.com")
	device, origin := establishSession(t)

	// The device computes the placeholder-bearing record only to learn its
	// length, then asks the node for the real one. Probing on a resumed
	// copy leaves the device's own session state untouched.
	cat, _ := c.Catalog()
	probe, err := tlssim.Resume(device.Export(), nil)
	if err != nil {
		t.Fatal(err)
	}
	probeRec, err := probe.Seal(tlssim.TypeMarkedCor, []byte(cat[0].Placeholder))
	if err != nil {
		t.Fatal(err)
	}

	rec, err := c.Reseal("cc", device.Export(), "apphash", "dev1", "shop.com", "203.0.113.5", len(probeRec))
	if err != nil {
		t.Fatal(err)
	}
	// The origin opens the node-sealed record as if the device had sent it.
	typ, plaintext, _, err := origin.Open(rec)
	if err != nil || typ != tlssim.TypeApplicationData {
		t.Fatalf("origin open: %v %v", err, typ)
	}
	if string(plaintext) != "4111111111111111" {
		t.Fatalf("origin saw %q", plaintext)
	}

	// Audit recorded the reseal.
	entries, err := c.AuditLog("", "dev1")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Outcome != "allowed" {
		t.Fatalf("audit = %+v", entries)
	}
}

func TestResealPolicyDenials(t *testing.T) {
	c, s := testServer(t)
	register(t, s, "pw", "secret99", "good.com")
	if err := s.Svc.BindApp("pw", "official-app"); err != nil {
		t.Fatal(err)
	}
	device, _ := establishSession(t)

	// Wrong app hash.
	_, err := c.Reseal("pw", device.Export(), "evil-app", "dev1", "good.com", "", 0)
	if err == nil || !strings.Contains(err.Error(), "app not bound") {
		t.Fatalf("err = %v", err)
	}
	// Wrong domain.
	_, err = c.Reseal("pw", device.Export(), "official-app", "dev1", "evil.com", "", 0)
	if err == nil || !strings.Contains(err.Error(), "whitelist") {
		t.Fatalf("err = %v", err)
	}
	// Revoked device.
	if err := s.Svc.Revoke("dev1"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Reseal("pw", device.Export(), "official-app", "dev1", "good.com", "", 0)
	if err == nil || !strings.Contains(err.Error(), "revoked") {
		t.Fatalf("err = %v", err)
	}
	if err := s.Svc.Restore("dev1"); err != nil {
		t.Fatal(err)
	}
	if _, err = c.Reseal("pw", device.Export(), "official-app", "dev1", "good.com", "", 0); err != nil {
		t.Fatalf("post-restore reseal: %v", err)
	}
	// Denials were audited.
	entries, _ := c.AuditLog("pw", "")
	denied := 0
	for _, e := range entries {
		if e.Outcome == "denied" {
			denied++
		}
	}
	if denied != 3 {
		t.Fatalf("denied audit entries = %d, want 3", denied)
	}
}

func TestResealRefusesTLS10(t *testing.T) {
	c, s := testServer(t)
	register(t, s, "pw", "secret99")
	key, _ := rsa.GenerateKey(rand.Reader, 1024)
	dev, _, _, err := tlssim.Handshake(
		tlssim.ClientConfig{MaxVersion: tlssim.TLS10, Suites: []tlssim.Suite{tlssim.SuiteAESCBCSHA256}},
		tlssim.ServerConfig{MaxVersion: tlssim.TLS10, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Reseal("pw", dev.Export(), "", "dev1", "", "", 0)
	if err == nil || !strings.Contains(err.Error(), "implicit-IV") {
		t.Fatalf("err = %v, want TLS1.0 refusal", err)
	}
}

func TestResealLengthGuard(t *testing.T) {
	c, s := testServer(t)
	register(t, s, "pw", "secret99")
	device, _ := establishSession(t)
	_, err := c.Reseal("pw", device.Export(), "", "dev1", "", "", 7)
	if err == nil || !strings.Contains(err.Error(), "desynchronize") {
		t.Fatalf("err = %v, want length guard", err)
	}
}

func TestUnknownOpAndCor(t *testing.T) {
	c, _ := testServer(t)
	device, _ := establishSession(t)
	if _, err := c.Reseal("nope", device.Export(), "", "dev1", "", "", 0); !errors.Is(err, node.ErrUnknownCor) {
		t.Fatalf("unknown cor: %v", err)
	}
	if _, err := c.Do(context.Background(), &Request{Op: "frobnicate"}); !errors.Is(err, node.ErrBadRequest) {
		t.Fatalf("unknown op: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	c, s := testServer(t)
	_ = c
	var addr string
	for i := 0; i < 100 && addr == ""; i++ {
		addr = s.Addr()
		time.Sleep(time.Millisecond)
	}
	if addr == "" {
		t.Fatal("server never bound")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := DialReconnect(addr, time.Second, ReconnectConfig{Heartbeat: -1})
			defer cl.Close()
			for j := 0; j < 10; j++ {
				if err := cl.Ping(); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMessageFraming(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		WriteMessage(a, &Request{Op: OpPing, CorID: "x"})
	}()
	var req Request
	if err := ReadMessage(b, &req); err != nil {
		t.Fatal(err)
	}
	if req.Op != OpPing || req.CorID != "x" {
		t.Fatalf("req = %+v", req)
	}
}
