package guardrail

import (
	"encoding/base64"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"tinman/internal/audit"
	"tinman/internal/obs"
)

const secret = "hunter2-super-secret"

// TestScannerEncodings checks every registered spelling of a secret is
// found, each tagged with the encoding that matched.
func TestScannerEncodings(t *testing.T) {
	s := New()
	s.AddSecret("pw", []byte(secret))
	cases := []struct {
		data     string
		encoding string
	}{
		{"prefix " + secret + " suffix", "raw"},
		{"blob=" + hex.EncodeToString([]byte(secret)), "hex"},
		{"BLOB=" + "48554E544552322D53555045522D534543524554", "hex"}, // upper-case hex of upper... see below
		{"b64=" + base64.StdEncoding.EncodeToString([]byte(secret)), "base64"},
		{"url=" + base64.RawURLEncoding.EncodeToString([]byte(secret)), "base64"},
	}
	// Case 2's literal is the upper hex of the upper-cased secret, which is
	// NOT registered — rebuild it as the upper hex of the secret itself.
	cases[2].data = "BLOB=" + func() string {
		h := hex.EncodeToString([]byte(secret))
		b := []byte(h)
		for i, c := range b {
			if c >= 'a' && c <= 'f' {
				b[i] = c - 'a' + 'A'
			}
		}
		return string(b)
	}()
	for _, c := range cases {
		got := s.Scan("test", []byte(c.data))
		if len(got) != 1 {
			t.Fatalf("scan %q: %d findings, want 1", c.data, len(got))
		}
		if got[0].Secret != "pw" || got[0].Encoding != c.encoding {
			t.Fatalf("scan %q: got %+v, want secret pw encoding %s", c.data, got[0], c.encoding)
		}
	}
	if got := s.Scan("test", []byte("nothing to see here")); len(got) != 0 {
		t.Fatalf("clean data produced findings: %v", got)
	}
}

// TestScannerShortSecretIgnored: sub-4-byte values would match everything.
func TestScannerShortSecretIgnored(t *testing.T) {
	s := New()
	s.AddSecret("tiny", []byte("abc"))
	if s.Secrets() != 0 {
		t.Fatalf("short secret registered")
	}
	if got := s.Scan("test", []byte("abcabcabc")); len(got) != 0 {
		t.Fatalf("short secret matched: %v", got)
	}
}

// TestScannerReRegisterReplaces: a regenerated secret must not leave stale
// fingerprints behind.
func TestScannerReRegisterReplaces(t *testing.T) {
	s := New()
	s.AddSecret("pw", []byte("old-value-1234"))
	s.AddSecret("pw", []byte("new-value-5678"))
	if s.Secrets() != 1 {
		t.Fatalf("Secrets() = %d, want 1", s.Secrets())
	}
	if got := s.Scan("test", []byte("old-value-1234")); len(got) != 0 {
		t.Fatalf("stale fingerprint still fires: %v", got)
	}
	if got := s.Scan("test", []byte("new-value-5678")); len(got) != 1 {
		t.Fatalf("new fingerprint missing: %v", got)
	}
}

// TestSweeperCanary builds every surface clean, verifies a zero-finding
// sweep, then seeds one leak per surface and checks each fires.
func TestSweeperCanary(t *testing.T) {
	tr := obs.New(obs.Options{})
	met := obs.NewMetrics()
	log := audit.NewLog(nil)
	dir := t.TempDir()

	sc := New()
	sc.AddSecret("pw", []byte(secret))
	findings := met.Counter("guardrail_findings_total")
	sw := &Sweeper{Scanner: sc, Tracer: tr, Metrics: met, Audit: log, Dirs: []string{dir}, Findings: findings}

	// Clean state: spans with ordinary fields, an audit entry with an
	// ordinary detail, a file of sealed-looking bytes.
	sp := tr.StartSpan(obs.PhasePolicyCheck, obs.Cor("pw"), obs.Device("phone-1"))
	sp.End()
	log.AppendEntry(audit.Entry{AppHash: "app", CorID: "pw", DeviceID: "phone-1", Domain: "x.example", Outcome: audit.OutcomeAllowed, Detail: "record resealed"})
	if err := os.WriteFile(filepath.Join(dir, "vault.wal"), []byte("ciphertext-here"), 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := sw.SweepOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("clean sweep found: %v", got)
	}

	// Seed the tracer: a span note carrying the plaintext models a
	// redaction-gate bypass. Both renders (spans + trace) must fire.
	leak := tr.StartSpan(obs.PhaseVaultOpen, obs.Note(secret))
	leak.End()
	// Seed the audit log and the persistence dir too.
	log.AppendEntry(audit.Entry{AppHash: "app", CorID: "pw", DeviceID: "phone-1", Domain: "x.example", Outcome: audit.OutcomeAllowed, Detail: "oops: " + secret})
	leakFile := filepath.Join(dir, "snapshot.json")
	if err := os.WriteFile(leakFile, []byte(`{"v":"`+hex.EncodeToString([]byte(secret))+`"}`), 0o600); err != nil {
		t.Fatal(err)
	}

	got, err = sw.SweepOnce()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"spans": "raw", "trace": "raw", "audit": "raw", leakFile: "hex"}
	if len(got) != len(want) {
		t.Fatalf("sweep found %d findings %v, want %d", len(got), got, len(want))
	}
	for _, f := range got {
		enc, ok := want[f.Source]
		if !ok {
			t.Fatalf("unexpected source %q: %v", f.Source, f)
		}
		if f.Secret != "pw" || f.Encoding != enc {
			t.Fatalf("source %s: got %+v, want secret pw encoding %s", f.Source, f, enc)
		}
		delete(want, f.Source)
	}
	if findings.Value() != uint64(len(got)) {
		t.Fatalf("findings counter = %d, want %d", findings.Value(), len(got))
	}
}
