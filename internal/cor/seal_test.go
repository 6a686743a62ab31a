package cor

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
)

// The Sealer is the vault's at-rest encryption: the store seals every cor
// record with it before the record reaches the WAL or a snapshot. The
// TestVault* tests pin the properties the vault relies on.

// sealTestRecord seals a vault-record-shaped payload under passphrase.
func sealTestRecord(t *testing.T, passphrase string, plaintext []byte) (*Sealer, []byte) {
	t.Helper()
	salt, err := NewSealerSalt()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSealer(passphrase, salt)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s.Seal(plaintext, []byte("vault"))
	if err != nil {
		t.Fatal(err)
	}
	return s, blob
}

func TestSealerRoundTrip(t *testing.T) {
	salt, err := NewSealerSalt()
	if err != nil {
		t.Fatal(err)
	}
	if len(salt) != SaltLen {
		t.Fatalf("salt length %d", len(salt))
	}
	s, err := NewSealer("pass", salt)
	if err != nil {
		t.Fatal(err)
	}
	ad := []byte("role")
	blob, err := s.Seal([]byte("payload"), ad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Open(blob, ad)
	if err != nil || string(got) != "payload" {
		t.Fatalf("open: %q %v", got, err)
	}
	// The additional data binds a blob to its role.
	if _, err := s.Open(blob, []byte("other-role")); !errors.Is(err, ErrVaultCorrupt) {
		t.Fatalf("wrong AD: %v", err)
	}
}

// TestSealerOpensExistingRecords pins the KDF and the blob layout: a
// record sealed by an earlier build must still open, or every existing
// store would lose its vault.
func TestSealerOpensExistingRecords(t *testing.T) {
	salt := []byte("0123456789abcdef")
	const passphrase = "correct horse battery staple"
	if got := hex.EncodeToString(deriveKey(passphrase, salt)); got != "0222b47fb1d67fcb0c39a9192f592bb80c9649ed00f93d374bc6403ae23a937e" {
		t.Fatalf("derived key changed: %s", got)
	}
	blob, err := hex.DecodeString("4621671acae3920167bb31ca45f1ccd6abc8279ae8fbe513ea5846d1bcf5b23055474d28798a2f9079026ed3e01076cb6781ebb2ed3f93fb532f15adcf4a85571c174fc0a9028e14fb53b5")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSealer(passphrase, salt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Open(blob, []byte("tinman-store-vault"))
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"id":"bank-pw","plaintext":"hunter2!","bit":0}`; string(got) != want {
		t.Fatalf("opened %q, want %q", got, want)
	}
}

func TestVaultCiphertextHidesSecrets(t *testing.T) {
	record := []byte(`{"id":"pw","plaintext":"super-secret-password"}`)
	s, blob := sealTestRecord(t, "key", record)
	if bytes.Contains(blob, []byte("super-secret-password")) {
		t.Fatal("plaintext visible in sealed record")
	}
	if bytes.Contains(blob, []byte(`"id"`)) {
		t.Fatal("JSON structure visible in sealed record")
	}
	// A fresh nonce per seal: the same record never seals to the same bytes.
	again, err := s.Seal(record, []byte("vault"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(blob, again) {
		t.Fatal("two seals of one record are identical")
	}
}

func TestVaultWrongPassphrase(t *testing.T) {
	salt, err := NewSealerSalt()
	if err != nil {
		t.Fatal(err)
	}
	right, _ := NewSealer("right", salt)
	blob, err := right.Seal([]byte("secret"), []byte("vault"))
	if err != nil {
		t.Fatal(err)
	}
	wrong, _ := NewSealer("wrong", salt)
	if _, err := wrong.Open(blob, []byte("vault")); !errors.Is(err, ErrVaultCorrupt) {
		t.Fatalf("wrong passphrase: %v, want ErrVaultCorrupt", err)
	}
	// The salt is part of the key: the right passphrase under another salt
	// fails the same way.
	otherSalt, _ := NewSealerSalt()
	rightOtherSalt, _ := NewSealer("right", otherSalt)
	if _, err := rightOtherSalt.Open(blob, []byte("vault")); !errors.Is(err, ErrVaultCorrupt) {
		t.Fatalf("wrong salt: %v, want ErrVaultCorrupt", err)
	}
}

func TestVaultTamperDetected(t *testing.T) {
	s, blob := sealTestRecord(t, "key", []byte("secret"))
	// Every flipped bit, in the nonce or the ciphertext, is caught.
	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x01
		if _, err := s.Open(mut, []byte("vault")); !errors.Is(err, ErrVaultCorrupt) {
			t.Fatalf("flip at byte %d: %v, want ErrVaultCorrupt", i, err)
		}
	}
	// So is every truncation, including one inside the nonce.
	for n := 0; n < len(blob); n++ {
		if _, err := s.Open(blob[:n], []byte("vault")); !errors.Is(err, ErrVaultCorrupt) {
			t.Fatalf("truncation to %d bytes: %v, want ErrVaultCorrupt", n, err)
		}
	}
}

func TestVaultValidation(t *testing.T) {
	salt, err := NewSealerSalt()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSealer("", salt); err == nil {
		t.Fatal("empty passphrase accepted")
	}
	if _, err := NewSealer("p", nil); err == nil {
		t.Fatal("empty salt accepted")
	}
}
