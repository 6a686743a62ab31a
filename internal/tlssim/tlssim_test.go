package tlssim

import (
	"bytes"
	"crypto/aes"
	"crypto/rand"
	"crypto/rsa"
	"encoding/hex"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// testKey is a process-wide RSA key; generating one per test would dominate
// test time without adding coverage.
var (
	testKeyOnce sync.Once
	testKey     *rsa.PrivateKey
)

func serverKey(t testing.TB) *rsa.PrivateKey {
	testKeyOnce.Do(func() {
		k, err := rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			t.Fatalf("generating test key: %v", err)
		}
		testKey = k
	})
	return testKey
}

func handshake(t testing.TB, ccfg ClientConfig, scfg ServerConfig) (*Session, *Session) {
	t.Helper()
	scfg.Key = serverKey(t)
	c, s, wire, err := Handshake(ccfg, scfg)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if wire <= 0 {
		t.Fatal("handshake reported no wire bytes")
	}
	return c, s
}

func TestRC4KnownVector(t *testing.T) {
	// Classic test vector: key "Key", plaintext "Plaintext".
	st := newRC4([]byte("Key"))
	got := make([]byte, 9)
	st.XORKeyStream(got, []byte("Plaintext"))
	want, _ := hex.DecodeString("bbf316e8d940af0ad3")
	if !bytes.Equal(got, want) {
		t.Fatalf("rc4 = %x, want %x", got, want)
	}
}

func TestRC4CloneContinuesIdentically(t *testing.T) {
	a := newRC4([]byte("sessionkey"))
	buf := make([]byte, 100)
	a.XORKeyStream(buf, buf) // advance 100 bytes
	b := a.clone()
	x, y := make([]byte, 64), make([]byte, 64)
	a.XORKeyStream(x, make([]byte, 64))
	b.XORKeyStream(y, make([]byte, 64))
	if !bytes.Equal(x, y) {
		t.Fatal("cloned RC4 state diverged")
	}
}

func TestPRFDeterministicAndLengths(t *testing.T) {
	a := prf([]byte("secret"), "label", []byte("seed"), 100)
	b := prf([]byte("secret"), "label", []byte("seed"), 100)
	if !bytes.Equal(a, b) || len(a) != 100 {
		t.Fatal("prf not deterministic or wrong length")
	}
	c := prf([]byte("secret"), "label2", []byte("seed"), 100)
	if bytes.Equal(a, c) {
		t.Fatal("prf ignores label")
	}
}

func TestHandshakeNegotiation(t *testing.T) {
	cases := []struct {
		name        string
		clientMax   Version
		serverMax   Version
		wantVersion Version
	}{
		{"both-12", TLS12, TLS12, TLS12},
		{"old-server", TLS12, TLS10, TLS10},
		{"old-client", TLS10, TLS12, TLS10},
		{"both-11", TLS11, TLS11, TLS11},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, s := handshake(t,
				ClientConfig{MaxVersion: tc.clientMax},
				ServerConfig{MaxVersion: tc.serverMax})
			if c.Version() != tc.wantVersion || s.Version() != tc.wantVersion {
				t.Fatalf("negotiated %v/%v, want %v", c.Version(), s.Version(), tc.wantVersion)
			}
		})
	}
}

func TestTinManMinVersionRefusesTLS10(t *testing.T) {
	// §3.2: the modified client SSL library ensures the version is newer
	// than TLS 1.0; a legacy server must be refused.
	ch, cst, err := NewClientHello(ClientConfig{MinVersion: TLS11})
	if err != nil {
		t.Fatal(err)
	}
	sh, _, err := ServerRespond(ServerConfig{MaxVersion: TLS10, Key: serverKey(t)}, ch)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ClientFinish(cst, sh); err == nil || !strings.Contains(err.Error(), "below required minimum") {
		t.Fatalf("err = %v, want min-version refusal", err)
	}
}

func TestServerCannotChooseUnofferedSuite(t *testing.T) {
	ch, cst, _ := NewClientHello(ClientConfig{Suites: []Suite{SuiteAESCBCSHA256}})
	sh, _, err := ServerRespond(ServerConfig{Key: serverKey(t)}, ch)
	if err != nil {
		t.Fatal(err)
	}
	sh.Suite = SuiteRC4SHA256 // tampered
	if _, _, err := ClientFinish(cst, sh); err == nil || !strings.Contains(err.Error(), "unoffered suite") {
		t.Fatalf("err = %v", err)
	}
}

func TestNoCommonSuite(t *testing.T) {
	ch, _, _ := NewClientHello(ClientConfig{Suites: []Suite{SuiteRC4SHA256}})
	_, _, err := ServerRespond(ServerConfig{Suites: []Suite{SuiteAESCBCSHA256}, Key: serverKey(t)}, ch)
	if err == nil || !strings.Contains(err.Error(), "no common cipher suite") {
		t.Fatalf("err = %v", err)
	}
}

func TestRecordRoundTripAllConfigs(t *testing.T) {
	for _, suite := range []Suite{SuiteRC4SHA256, SuiteAESCBCSHA256} {
		for _, ver := range []Version{TLS10, TLS11, TLS12} {
			c, s := handshake(t,
				ClientConfig{MaxVersion: ver, Suites: []Suite{suite}},
				ServerConfig{MaxVersion: ver, Suites: []Suite{suite}})
			for i := 0; i < 5; i++ {
				msg := []byte(strings.Repeat("hello tinman ", i+1))
				rec, err := c.Seal(TypeApplicationData, msg)
				if err != nil {
					t.Fatalf("%v/%v seal: %v", suite, ver, err)
				}
				typ, got, rest, err := s.Open(rec)
				if err != nil {
					t.Fatalf("%v/%v open: %v", suite, ver, err)
				}
				if typ != TypeApplicationData || !bytes.Equal(got, msg) || len(rest) != 0 {
					t.Fatalf("%v/%v round trip mismatch", suite, ver)
				}
				// And the reverse direction.
				rec, _ = s.Seal(TypeApplicationData, []byte("reply"))
				if _, got, _, err = c.Open(rec); err != nil || string(got) != "reply" {
					t.Fatalf("%v/%v reverse: %v %q", suite, ver, err, got)
				}
			}
		}
	}
}

func TestRecordCiphertextHidesPlaintext(t *testing.T) {
	c, _ := handshake(t, ClientConfig{}, ServerConfig{})
	secret := []byte("credit-card=4111111111111111")
	rec, _ := c.Seal(TypeApplicationData, secret)
	if bytes.Contains(rec, []byte("4111111111111111")) {
		t.Fatal("plaintext visible in sealed record")
	}
}

func TestTamperedRecordRejected(t *testing.T) {
	c, s := handshake(t, ClientConfig{}, ServerConfig{})
	rec, _ := c.Seal(TypeApplicationData, []byte("payload"))
	rec[len(rec)-1] ^= 0x01
	if _, _, _, err := s.Open(rec); err == nil {
		t.Fatal("tampered record accepted")
	}
}

func TestReplayRejected(t *testing.T) {
	c, s := handshake(t, ClientConfig{Suites: []Suite{SuiteRC4SHA256}}, ServerConfig{})
	rec, _ := c.Seal(TypeApplicationData, []byte("once"))
	if _, _, _, err := s.Open(rec); err != nil {
		t.Fatal(err)
	}
	// Replaying the identical record must fail: the MAC covers the
	// sequence number.
	if _, _, _, err := s.Open(rec); err == nil {
		t.Fatal("replayed record accepted")
	}
}

func TestCoalescedRecords(t *testing.T) {
	c, s := handshake(t, ClientConfig{}, ServerConfig{})
	r1, _ := c.Seal(TypeApplicationData, []byte("first"))
	r2, _ := c.Seal(TypeApplicationData, []byte("second"))
	wire := append(append([]byte(nil), r1...), r2...)
	_, got1, rest, err := s.Open(wire)
	if err != nil || string(got1) != "first" || len(rest) != len(r2) {
		t.Fatalf("first open: %v %q rest=%d", err, got1, len(rest))
	}
	_, got2, rest, err := s.Open(rest)
	if err != nil || string(got2) != "second" || len(rest) != 0 {
		t.Fatalf("second open: %v %q", err, got2)
	}
}

func TestTruncatedRecordRejected(t *testing.T) {
	c, s := handshake(t, ClientConfig{}, ServerConfig{})
	rec, _ := c.Seal(TypeApplicationData, []byte("payload"))
	for _, cut := range []int{1, 4, len(rec) - 1} {
		if _, _, _, err := s.Open(rec[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestMarkedCorRecordType(t *testing.T) {
	c, s := handshake(t, ClientConfig{}, ServerConfig{})
	rec, err := c.Seal(TypeMarkedCor, []byte("placeholder-bearing request"))
	if err != nil {
		t.Fatal(err)
	}
	// The mark is visible in the clear (first byte) — that is the point:
	// the packet filter matches on it without decrypting (§3.6).
	if RecordType(rec[0]) != TypeMarkedCor {
		t.Fatalf("record type byte = %d", rec[0])
	}
	typ, got, _, err := s.Open(rec)
	if err != nil || typ != TypeMarkedCor || string(got) != "placeholder-bearing request" {
		t.Fatalf("open marked: %v %v %q", err, typ, got)
	}
}

func TestOversizeRecordRefused(t *testing.T) {
	c, _ := handshake(t, ClientConfig{}, ServerConfig{})
	if _, err := c.Seal(TypeApplicationData, make([]byte, maxRecordPayload+1)); err == nil {
		t.Fatal("oversize payload accepted")
	}
}

// --- session injection ---

func TestSessionInjectionRC4(t *testing.T) {
	testSessionInjection(t, SuiteRC4SHA256, TLS12)
}

func TestSessionInjectionCBCExplicitIV(t *testing.T) {
	testSessionInjection(t, SuiteAESCBCSHA256, TLS12)
}

func testSessionInjection(t *testing.T, suite Suite, ver Version) {
	t.Helper()
	device, server := handshake(t,
		ClientConfig{MaxVersion: ver, Suites: []Suite{suite}},
		ServerConfig{MaxVersion: ver, Suites: []Suite{suite}})

	// Device exchanges some traffic first (the non-cor part of the app).
	rec, _ := device.Seal(TypeApplicationData, []byte("GET /login"))
	if _, _, _, err := server.Open(rec); err != nil {
		t.Fatal(err)
	}
	rec, _ = server.Seal(TypeApplicationData, []byte("form"))
	if _, _, _, err := device.Open(rec); err != nil {
		t.Fatal(err)
	}

	// 1. Device exports its session state and ships it to the trusted node.
	blob, err := device.Export().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	st, err := UnmarshalState(blob)
	if err != nil {
		t.Fatal(err)
	}
	node, err := Resume(st, nil)
	if err != nil {
		t.Fatal(err)
	}

	// 2. The node seals the cor-bearing record; the server must accept it
	// exactly as if the device had sent it.
	rec, err = node.Seal(TypeApplicationData, []byte("password=hunter2!"))
	if err != nil {
		t.Fatal(err)
	}
	typ, got, _, err := server.Open(rec)
	if err != nil || typ != TypeApplicationData || string(got) != "password=hunter2!" {
		t.Fatalf("server after injection: %v %q", err, got)
	}
	// Server replies; the node reads it.
	rec, _ = server.Seal(TypeApplicationData, []byte("200 OK"))
	if _, got, _, err = node.Open(rec); err != nil || string(got) != "200 OK" {
		t.Fatalf("node read: %v %q", err, got)
	}

	// 3. State returns to the device, which resumes seamlessly.
	st2, err := UnmarshalState(mustMarshal(t, node.Export()))
	if err != nil {
		t.Fatal(err)
	}
	device2, err := Resume(st2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ = device2.Seal(TypeApplicationData, []byte("GET /account"))
	if _, got, _, err = server.Open(rec); err != nil || string(got) != "GET /account" {
		t.Fatalf("device after return: %v %q", err, got)
	}
	rec, _ = server.Seal(TypeApplicationData, []byte("balance: 100"))
	if _, got, _, err = device2.Open(rec); err != nil || string(got) != "balance: 100" {
		t.Fatalf("device read after return: %v %q", err, got)
	}
}

func TestStaleSessionStateFailsAfterInjection(t *testing.T) {
	// If the device kept using its *pre-injection* session while the node
	// advanced it, sequence numbers desynchronize and the server rejects —
	// the reason TinMan serializes the hand-off.
	device, server := handshake(t, ClientConfig{Suites: []Suite{SuiteRC4SHA256}}, ServerConfig{})
	node, err := Resume(device.Export(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := node.Seal(TypeApplicationData, []byte("cor"))
	if _, _, _, err := server.Open(rec); err != nil {
		t.Fatal(err)
	}
	// Stale device seal now fails at the server.
	rec, _ = device.Seal(TypeApplicationData, []byte("stale"))
	if _, _, _, err := server.Open(rec); err == nil {
		t.Fatal("server accepted a record from the stale session state")
	}
}

func TestResumeValidation(t *testing.T) {
	if _, err := Resume(&State{Suite: SuiteRC4SHA256}, nil); err == nil {
		t.Fatal("resume with empty RC4 state accepted")
	}
	if _, err := Resume(&State{Suite: Suite(0x9999)}, nil); err == nil {
		t.Fatal("resume with unknown suite accepted")
	}
	if _, err := Resume(&State{Version: TLS10, Suite: SuiteAESCBCSHA256}, nil); err == nil {
		t.Fatal("resume TLS1.0 CBC without chain state accepted")
	}
	if _, err := UnmarshalState([]byte("{")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

// --- the Figure 7 leak ---

func TestImplicitIVLeak(t *testing.T) {
	// Fig 7, faithfully: a TLS 1.0 CBC session is synced to the node, which
	// CBC-encrypts one cor block chained onto the device's last ciphertext
	// block. Syncing the chain state back hands the device everything it
	// needs: key (it ran the handshake), C11 (its own last block), C12 (the
	// returned chain state).
	device, _ := handshake(t,
		ClientConfig{MaxVersion: TLS10, Suites: []Suite{SuiteAESCBCSHA256}},
		ServerConfig{MaxVersion: TLS10})
	if device.Version() != TLS10 {
		t.Fatal("setup: want TLS1.0")
	}
	// Device sends a record; its chain state is now C11.
	if _, err := device.Seal(TypeApplicationData, []byte("innocent request")); err != nil {
		t.Fatal(err)
	}
	c11 := device.ChainState()
	key := device.WriteKey()

	// The node (resumed from the synced state) encrypts the cor block.
	node, err := Resume(device.Export(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cor := []byte("pin=9137;ok=yes!") // exactly one AES block
	block, _ := aes.NewCipher(key)
	c12 := make([]byte, 16)
	encryptCBC(block, c11, c12, cor)
	_ = node

	// The device applies P12 = D(C12) XOR C11 and recovers the cor.
	recovered, err := RecoverImplicitIVBlock(key, c11, c12)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recovered, cor) {
		t.Fatalf("leak demo failed: got %q want %q", recovered, cor)
	}
}

func TestLeakImpossibleWithExplicitIV(t *testing.T) {
	// With TLS 1.1+ the chain-state attack surface does not exist: there is
	// no implicit chain to sync.
	device, _ := handshake(t,
		ClientConfig{MaxVersion: TLS12, Suites: []Suite{SuiteAESCBCSHA256}},
		ServerConfig{})
	if device.ChainState() != nil {
		t.Fatal("explicit-IV session must expose no chain state")
	}
	st := device.Export()
	if len(st.Out.CBCLast) != 0 {
		// The exported state for TLS 1.2 CBC has no chained IV to leak.
		t.Fatal("TLS1.2 CBC export carries chain state")
	}
}

func TestRecoverImplicitIVBlockValidation(t *testing.T) {
	if _, err := RecoverImplicitIVBlock([]byte("short"), make([]byte, 16), make([]byte, 16)); err == nil {
		t.Fatal("bad key accepted")
	}
	if _, err := RecoverImplicitIVBlock(make([]byte, 16), make([]byte, 3), make([]byte, 16)); err == nil {
		t.Fatal("bad block size accepted")
	}
}

// --- properties ---

func TestSealOpenRoundTripProperty(t *testing.T) {
	c, s := handshake(t, ClientConfig{}, ServerConfig{})
	prop := func(payload []byte) bool {
		if len(payload) > maxRecordPayload {
			payload = payload[:maxRecordPayload]
		}
		rec, err := c.Seal(TypeApplicationData, payload)
		if err != nil {
			return false
		}
		_, got, rest, err := s.Open(rec)
		return err == nil && bytes.Equal(got, payload) && len(rest) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPaddingRoundTripProperty(t *testing.T) {
	prop := func(b []byte) bool {
		padded := padCBC(b, 16)
		if len(padded)%16 != 0 {
			return false
		}
		out, err := unpadCBC(padded)
		return err == nil && bytes.Equal(out, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVersionAndSuiteStrings(t *testing.T) {
	for _, v := range []Version{TLS10, TLS11, TLS12, Version(0x9999)} {
		if v.String() == "" {
			t.Fatal("empty version string")
		}
	}
	for _, s := range []Suite{SuiteRC4SHA256, SuiteAESCBCSHA256, Suite(0x9999)} {
		if s.String() == "" {
			t.Fatal("empty suite string")
		}
	}
}

func mustMarshal(t *testing.T, st *State) []byte {
	t.Helper()
	b, err := st.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHelloLengthsFixed: the encoded ClientHello, ServerHello and
// ClientKeyExchange each have one length whatever the crypto/rand draws
// and whichever 1024-bit key the server holds, so a seeded simulation
// spends the same virtual time on every handshake of every run.
func TestHelloLengthsFixed(t *testing.T) {
	other, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	keys := []*rsa.PrivateKey{serverKey(t), other}
	lengths := map[string]int{}
	for i := 0; i < 32; i++ {
		ch, cst, err := NewClientHello(ClientConfig{MinVersion: TLS11})
		if err != nil {
			t.Fatal(err)
		}
		sh, _, err := ServerRespond(ServerConfig{Key: keys[i%len(keys)]}, ch)
		if err != nil {
			t.Fatal(err)
		}
		cke, _, err := ClientFinish(cst, sh)
		if err != nil {
			t.Fatal(err)
		}
		for name, m := range map[string]any{"ClientHello": ch, "ServerHello": sh, "ClientKeyExchange": cke} {
			b, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if n, seen := lengths[name]; seen && n != len(b) {
				t.Fatalf("%s encoded to %d bytes, earlier to %d", name, len(b), n)
			}
			lengths[name] = len(b)
		}
	}
}

// TestMalformedHelloRefused: a hello whose random is not 32 bytes, or a
// ServerHello without a modulus, ends the handshake with an error.
func TestMalformedHelloRefused(t *testing.T) {
	ch, cst, err := NewClientHello(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	short := *ch
	short.Random = ch.Random[:31]
	if _, _, err := ServerRespond(ServerConfig{Key: serverKey(t)}, &short); err == nil {
		t.Fatal("31-byte client random accepted")
	}
	sh, _, err := ServerRespond(ServerConfig{Key: serverKey(t)}, ch)
	if err != nil {
		t.Fatal(err)
	}
	for name, tamper := range map[string]func(*ServerHello){
		"short random": func(h *ServerHello) { h.Random = h.Random[:31] },
		"no modulus":   func(h *ServerHello) { h.PubN = nil },
	} {
		bad := *sh
		tamper(&bad)
		if _, _, err := ClientFinish(cst, &bad); err == nil {
			t.Fatalf("ServerHello with %s accepted", name)
		}
	}
}
