package cor

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
)

// ErrVaultCorrupt is the sentinel every unreadable sealed vault record
// wraps: truncated blobs, ciphertext tampering and wrong passphrases all
// match it under errors.Is (AES-GCM cannot distinguish a wrong key from a
// flipped bit, so neither can we).
var ErrVaultCorrupt = errors.New("cor: vault corrupt or wrong passphrase")

// SaltLen is the salt size NewSealerSalt mints.
const SaltLen = 16

const (
	// nonceLen is the size of the AES-GCM nonce every sealed blob starts
	// with.
	nonceLen = 12
	// kdfIterations hardens the passphrase with iterated hashing. (A
	// stdlib-only stand-in for a memory-hard KDF; swap for argon2/scrypt
	// when external dependencies are acceptable.)
	kdfIterations = 64 * 1024
)

// deriveKey stretches a passphrase into an AES-256 key.
func deriveKey(passphrase string, salt []byte) []byte {
	key := sha256.Sum256(append([]byte(passphrase), salt...))
	for i := 0; i < kdfIterations; i++ {
		key = sha256.Sum256(append(key[:], salt...))
	}
	return key[:]
}

// Sealer encrypts and decrypts blobs under a passphrase-derived AES-256-GCM
// key: it is the vault's at-rest encryption. The paper assumes the node's
// storage is professionally administered (§2.3); sealing cor records
// narrows even that trust. Deriving the key runs the deliberately slow KDF
// once; the sealer then seals/opens individual records cheaply — the shape
// the storage engine needs, where every cor WAL record and snapshot
// section is encrypted at rest but appends must stay on a hot path.
//
// The salt must be stored alongside the sealed data (it is not secret) and
// fed back to NewSealer to open it again. A Sealer is safe for concurrent
// use.
type Sealer struct {
	aead cipher.AEAD
}

// NewSealerSalt returns a fresh random salt for a new Sealer.
func NewSealerSalt() ([]byte, error) {
	salt := make([]byte, SaltLen)
	if _, err := io.ReadFull(rand.Reader, salt); err != nil {
		return nil, err
	}
	return salt, nil
}

// NewSealer derives the sealing key from the passphrase and salt.
func NewSealer(passphrase string, salt []byte) (*Sealer, error) {
	if passphrase == "" {
		return nil, fmt.Errorf("cor: sealer passphrase must not be empty")
	}
	if len(salt) == 0 {
		return nil, fmt.Errorf("cor: sealer salt must not be empty")
	}
	block, err := aes.NewCipher(deriveKey(passphrase, salt))
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &Sealer{aead: aead}, nil
}

// Seal encrypts plaintext, binding it to the additional data; the result is
// nonce || ciphertext.
func (s *Sealer) Seal(plaintext, additional []byte) ([]byte, error) {
	nonce := make([]byte, nonceLen)
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(nonce)+len(plaintext)+s.aead.Overhead())
	out = append(out, nonce...)
	return s.aead.Seal(out, nonce, plaintext, additional), nil
}

// Open decrypts a Seal output. Truncated or tampered blobs (and wrong
// passphrases) fail with an error wrapping ErrVaultCorrupt.
func (s *Sealer) Open(blob, additional []byte) ([]byte, error) {
	if len(blob) < nonceLen {
		return nil, fmt.Errorf("cor: sealed blob truncated (%d bytes): %w", len(blob), ErrVaultCorrupt)
	}
	pt, err := s.aead.Open(nil, blob[:nonceLen], blob[nonceLen:], additional)
	if err != nil {
		return nil, fmt.Errorf("cor: opening sealed blob: %w", ErrVaultCorrupt)
	}
	return pt, nil
}
