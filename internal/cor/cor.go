// Package cor implements TinMan's Confidential Record abstraction (Table 1
// of the paper). A cor is a secret — password, bank account, credit card
// number — whose plaintext exists exclusively on the trusted node. The
// device holds only a same-sized placeholder tainted with the cor's ID.
package cor

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"tinman/internal/taint"
)

// Record is one cor with the metadata fields of Table 1 except its
// whitelist, which lives in the trusted node's policy document (package
// policy) beside the cor's other rules. The Plaintext field is only ever
// populated inside the trusted node's Store; Registry entries shared with
// devices never carry it.
type Record struct {
	// ID uniquely names the cor ("citibank-password").
	ID string
	// Plaintext is the secret; stored exclusively on the trusted node.
	Plaintext string
	// Placeholder is the dummy value stored on devices; it has the same
	// length as the plaintext (the paper notes the length is therefore not
	// protected, §5.1).
	Placeholder string
	// Description is shown to the user in the selection widget ("My Citi
	// password").
	Description string
	// Bit is the taint bit assigned at registration.
	Bit int
	// Class is the sensitivity tier (public / sensitive / server-only).
	Class Class
}

// Tag returns the record's taint tag.
func (r *Record) Tag() taint.Tag { return taint.Bit(r.Bit) }

// Store is the trusted node's cor database: plaintexts, placeholders and
// taint-bit assignment. It is safe for concurrent use (the standalone
// tinman-node binary serves multiple device connections).
type Store struct {
	mu      sync.RWMutex
	byID    map[string]*Record
	byBit   [64]*Record
	nextBit int

	// views caches the device-visible catalog. Registrations are rare and
	// catalog fetches constant on a loaded node, so the sorted snapshot is
	// built once per mutation and served lock-free afterwards.
	views atomic.Pointer[[]DeviceView]
}

// NewStore creates an empty cor store.
func NewStore() *Store {
	return &Store{byID: make(map[string]*Record)}
}

// Register initializes a cor in a safe environment (§2.3: a one-time
// effort). The placeholder is generated automatically with the same length
// as the plaintext. Register fails on duplicate IDs, empty plaintext, or
// taint-bit exhaustion.
func (s *Store) Register(id, plaintext, description string) (*Record, error) {
	if id == "" {
		return nil, fmt.Errorf("cor: empty ID")
	}
	if plaintext == "" {
		return nil, fmt.Errorf("cor: %s: empty plaintext", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byID[id]; dup {
		return nil, fmt.Errorf("cor: %s already registered", id)
	}
	if s.nextBit >= 64 {
		return nil, fmt.Errorf("cor: taint bits exhausted (max 64 cors per store)")
	}
	r := &Record{
		ID:          id,
		Plaintext:   plaintext,
		Placeholder: makePlaceholder(id, len(plaintext)),
		Description: description,
		Bit:         s.nextBit,
		Class:       DefaultClass,
	}
	s.nextBit++
	s.byID[id] = r
	s.byBit[r.Bit] = r
	s.views.Store(nil)
	return r, nil
}

// Get returns the record by ID, or nil.
func (s *Store) Get(id string) *Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byID[id]
}

// ByBit returns the record assigned the given taint bit, or nil.
func (s *Store) ByBit(bit int) *Record {
	if bit < 0 || bit > 63 {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byBit[bit]
}

// ByTag returns every record whose bit is set in the tag.
func (s *Store) ByTag(tag taint.Tag) []*Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*Record
	for _, b := range tag.Bits() {
		if r := s.byBit[b]; r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Derive registers a derived cor: a new secret computed on the trusted node
// from an existing one (e.g. the hash of account/password in §4.1). The
// derived record inherits the parent's taint bit and class — it is the
// same secret lineage, observable under the same tag, and the node checks
// it against the parent's policy rules.
func (s *Store) Derive(parentID, newID, plaintext string) (*Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	parent := s.byID[parentID]
	if parent == nil {
		return nil, fmt.Errorf("cor: derive: unknown parent %s", parentID)
	}
	if _, dup := s.byID[newID]; dup {
		return nil, fmt.Errorf("cor: derive: %s already registered", newID)
	}
	r := &Record{
		ID:          newID,
		Plaintext:   plaintext,
		Placeholder: makePlaceholder(newID, len(plaintext)),
		Description: "derived from " + parent.ID,
		Bit:         parent.Bit,
		Class:       parent.Class,
	}
	s.byID[newID] = r
	s.views.Store(nil)
	return r, nil
}

// DropDerived removes a derived record. It refuses an unknown ID and a
// primary (registered) record, which owns its taint bit.
func (s *Store) DropDerived(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.byID[id]
	if r == nil {
		return fmt.Errorf("cor: drop: unknown cor %s", id)
	}
	if s.byBit[r.Bit] == r {
		return fmt.Errorf("cor: drop: %s is a registered cor, not a derived one", id)
	}
	delete(s.byID, id)
	s.views.Store(nil)
	return nil
}

// List returns all records sorted by ID (descriptions feed the device's
// selection widget).
func (s *Store) List() []*Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Record, 0, len(s.byID))
	for _, r := range s.byID {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of registered cors.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byID)
}

// DeviceView is the metadata a device is allowed to see: everything except
// plaintext. The device uses it to materialize tainted placeholders and to
// show the selection list.
type DeviceView struct {
	ID          string
	Placeholder string
	Description string
	Bit         int
	Class       Class
}

// DeviceViews exports the device-visible catalog. The returned slice is a
// shared snapshot — callers must treat it as read-only. It is rebuilt only
// after a registration, so steady-state catalog serving is lock-free.
func (s *Store) DeviceViews() []DeviceView {
	if p := s.views.Load(); p != nil {
		return *p
	}
	// Rebuild while holding the read lock: writers (Register/Derive) hold
	// the write lock when they invalidate, so a snapshot stored here can
	// never miss a concurrent registration.
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]DeviceView, 0, len(s.byID))
	for _, r := range s.byID {
		out = append(out, DeviceView{ID: r.ID, Placeholder: r.Placeholder, Description: r.Description, Bit: r.Bit, Class: r.Class})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	s.views.Store(&out)
	return out
}

// Placeholder derives a deterministic dummy value of length n from the cor
// ID. Deterministic generation keeps device and node placeholder values
// identical without shipping secrets: both sides can compute it. Devices use
// it directly to materialize placeholders for derived cors minted on the
// trusted node.
func Placeholder(id string, n int) string { return makePlaceholder(id, n) }

// makePlaceholder is the implementation behind Placeholder.
func makePlaceholder(id string, n int) string {
	const marker = "TINMAN-PLACEHOLDER-"
	var b []byte
	b = append(b, marker...)
	seed := []byte(id)
	for len(b) < n {
		sum := sha256.Sum256(seed)
		b = append(b, hex.EncodeToString(sum[:])...)
		seed = sum[:]
	}
	return string(b[:n])
}
