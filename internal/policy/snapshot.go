// Snapshot: the serializable whole-policy document, the only unit in which
// policy changes. An operator (or the fleet control plane) builds a
// Snapshot, Validate rejects it before anything changes, and Install
// publishes it as one atomic pointer swap — in-flight checks finish against
// the ruleset they loaded, new checks see the complete new policy, and
// there is no intermediate state in between.
package policy

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"tinman/internal/cor"
)

// ErrStaleSnapshot marks an Install whose explicit Version is at or below
// the installed document's: versions never go backwards.
var ErrStaleSnapshot = errors.New("policy: stale snapshot version")

// RateSpec is the serializable form of a rate limit: Max sends per Per
// (JSON carries Per as nanoseconds, Go's native Duration encoding).
type RateSpec struct {
	Max int           `json:"max"`
	Per time.Duration `json:"per"`
}

// Snapshot is one complete policy document. Maps and slices marshal
// deterministically (keys sorted, slices pre-sorted by Export), so its
// canonical JSON doubles as the content-hash input.
type Snapshot struct {
	// Version is the document's number. Zero lets the engine take the next
	// one; an explicit Version must exceed the installed document's, or
	// Install rejects it, so versions never go backwards.
	Version uint64 `json:"version,omitempty"`

	Bindings   map[string][]string `json:"bindings,omitempty"`    // cor -> allowed app hashes
	Whitelist  map[string][]string `json:"whitelist,omitempty"`   // cor -> domains; no entry = any domain, empty list = never send
	AuthIPs    map[string][]string `json:"auth_ips,omitempty"`    // domain -> auth endpoint IPs
	AuthOnly   []string            `json:"auth_only,omitempty"`   // cors restricted to auth IPs
	Revoked    []string            `json:"revoked,omitempty"`     // revoked devices
	Windows    map[string]Window   `json:"windows,omitempty"`     // cor -> daily window
	Rates      map[string]RateSpec `json:"rates,omitempty"`       // cor -> rate limit
	ClassRates map[string]RateSpec `json:"class_rates,omitempty"` // class -> shared budget
}

// Validate rejects a malformed snapshot before any state changes — the
// "validate" half of validate-then-swap. It is deliberately strict: a fleet
// push that fails here fails identically on every member.
func (s *Snapshot) Validate() error {
	for id, r := range s.Rates {
		if id == "" {
			return fmt.Errorf("policy: snapshot: rate limit with empty cor ID")
		}
		if err := r.validate("cor " + id); err != nil {
			return err
		}
	}
	for cls, r := range s.ClassRates {
		if c, err := cor.ParseClass(cls); err != nil || string(c) != cls {
			return fmt.Errorf("policy: snapshot: class rate for unknown class %q", cls)
		}
		if err := r.validate("class " + cls); err != nil {
			return err
		}
	}
	for id, w := range s.Windows {
		if w.From < 0 || w.From > 23 || w.To < 0 || w.To > 23 {
			return fmt.Errorf("policy: snapshot: window for %s out of range [0,24): [%d,%d)", id, w.From, w.To)
		}
	}
	for dom, ips := range s.AuthIPs {
		if dom == "" {
			return fmt.Errorf("policy: snapshot: auth IPs with empty domain")
		}
		for _, ip := range ips {
			if ip == "" {
				return fmt.Errorf("policy: snapshot: empty auth IP for domain %s", dom)
			}
		}
	}
	for _, dev := range s.Revoked {
		if dev == "" {
			return fmt.Errorf("policy: snapshot: empty device ID in revocation list")
		}
	}
	return nil
}

func (r RateSpec) validate(what string) error {
	if r.Max < 0 {
		return fmt.Errorf("policy: snapshot: negative rate max for %s", what)
	}
	if r.Per <= 0 {
		return fmt.Errorf("policy: snapshot: non-positive rate period for %s", what)
	}
	return nil
}

// Install validates the snapshot and publishes it as the complete new
// policy in one atomic swap. Live rate counters whose (max, per) spec is
// unchanged carry over, so a hot-reload does not refill consumed budgets.
// The malware lookup (code, not data) carries over unconditionally.
//
// The published version is the snapshot's Version, which must exceed the
// installed one (ErrStaleSnapshot otherwise); a zero Version takes the
// installed version plus one.
func (e *Engine) Install(s *Snapshot) (Stamp, error) {
	if err := s.Validate(); err != nil {
		return Stamp{}, err
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	return e.installLocked(s)
}

// Update is the read-modify-write form of Install: under the write lock it
// exports the installed document with its Version cleared, lets edit
// change it, and installs the result, so concurrent writers cannot lose
// each other's changes. edit may set an explicit Version; it must not call
// back into the engine. Update returns the installed document, Version
// filled in, for the caller to log or push.
func (e *Engine) Update(edit func(*Snapshot)) (*Snapshot, Stamp, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	doc := exportRules(e.cur.Load())
	edit(doc)
	if err := doc.Validate(); err != nil {
		return nil, Stamp{}, err
	}
	st, err := e.installLocked(doc)
	if err != nil {
		return nil, Stamp{}, err
	}
	doc.Version = st.Version
	return doc, st, nil
}

// installLocked publishes a validated snapshot; writeMu held.
func (e *Engine) installLocked(s *Snapshot) (Stamp, error) {
	prev := e.cur.Load()
	version := prev.version + 1
	if s.Version != 0 {
		if s.Version <= prev.version {
			return Stamp{}, fmt.Errorf("%w: %d (already at %d)", ErrStaleSnapshot, s.Version, prev.version)
		}
		version = s.Version
	}

	next := emptyRuleset()
	next.version = version
	next.malware = prev.malware
	for id, hashes := range s.Bindings {
		m := make(map[string]bool, len(hashes))
		for _, h := range hashes {
			m[h] = true
		}
		next.appBindings[id] = m
	}
	for id, wl := range s.Whitelist {
		next.whitelist[id] = append([]string{}, wl...)
	}
	for dom, ips := range s.AuthIPs {
		next.authIPs[dom] = append([]string(nil), ips...)
	}
	for _, id := range s.AuthOnly {
		next.authOnly[id] = true
	}
	for _, dev := range s.Revoked {
		next.revoked[dev] = true
	}
	for id, w := range s.Windows {
		next.windows[id] = w
	}
	for id, spec := range s.Rates {
		if old := prev.rates[id]; old.sameSpec(spec.Max, spec.Per) {
			next.rates[id] = old
		} else {
			next.rates[id] = &rate{max: spec.Max, per: spec.Per}
		}
	}
	for cls, spec := range s.ClassRates {
		c := cor.Class(cls)
		if old := prev.classRates[c]; old.sameSpec(spec.Max, spec.Per) {
			next.classRates[c] = old
		} else {
			next.classRates[c] = &rate{max: spec.Max, per: spec.Per}
		}
	}
	next.hash = rulesetHash(next)
	e.cur.Store(next)
	return Stamp{Version: next.version, Hash: next.hash}, nil
}

// Bind adds appHash to the apps allowed to use the cor.
func (s *Snapshot) Bind(corID, appHash string) {
	if slices.Contains(s.Bindings[corID], appHash) {
		return
	}
	if s.Bindings == nil {
		s.Bindings = make(map[string][]string)
	}
	s.Bindings[corID] = append(slices.Clip(s.Bindings[corID]), appHash)
}

// AllowDomains replaces the cor's whitelist; an empty list means the cor is
// never sent.
func (s *Snapshot) AllowDomains(corID string, domains []string) {
	if s.Whitelist == nil {
		s.Whitelist = make(map[string][]string)
	}
	s.Whitelist[corID] = append([]string{}, domains...)
}

// Revoke adds the device to the revocation list.
func (s *Snapshot) Revoke(deviceID string) {
	if !slices.Contains(s.Revoked, deviceID) {
		s.Revoked = append(slices.Clip(s.Revoked), deviceID)
	}
}

// Restore removes the device from the revocation list.
func (s *Snapshot) Restore(deviceID string) {
	s.Revoked = slices.DeleteFunc(slices.Clone(s.Revoked), func(d string) bool { return d == deviceID })
}

// Export captures the installed document — what an admin GET returns for
// editing. Its Version is the installed one, so a document posted back
// must drop or raise it. Slices are sorted so the export is canonical.
func (e *Engine) Export() *Snapshot {
	rs := e.cur.Load()
	s := exportRules(rs)
	s.Version = rs.version
	return s
}

// exportRules serializes a ruleset's data (not its version): the shared
// canonical form behind both Export and the content hash.
func exportRules(rs *ruleset) *Snapshot {
	s := &Snapshot{}
	if len(rs.appBindings) > 0 {
		s.Bindings = make(map[string][]string, len(rs.appBindings))
		for id, m := range rs.appBindings {
			hashes := make([]string, 0, len(m))
			for h := range m {
				hashes = append(hashes, h)
			}
			sort.Strings(hashes)
			s.Bindings[id] = hashes
		}
	}
	if len(rs.whitelist) > 0 {
		s.Whitelist = make(map[string][]string, len(rs.whitelist))
		for id, wl := range rs.whitelist {
			s.Whitelist[id] = append([]string{}, wl...)
		}
	}
	if len(rs.authIPs) > 0 {
		s.AuthIPs = make(map[string][]string, len(rs.authIPs))
		for dom, ips := range rs.authIPs {
			s.AuthIPs[dom] = append([]string(nil), ips...)
		}
	}
	for id, on := range rs.authOnly {
		if on {
			s.AuthOnly = append(s.AuthOnly, id)
		}
	}
	sort.Strings(s.AuthOnly)
	for dev := range rs.revoked {
		s.Revoked = append(s.Revoked, dev)
	}
	sort.Strings(s.Revoked)
	if len(rs.windows) > 0 {
		s.Windows = make(map[string]Window, len(rs.windows))
		for id, w := range rs.windows {
			s.Windows[id] = w
		}
	}
	if len(rs.rates) > 0 {
		s.Rates = make(map[string]RateSpec, len(rs.rates))
		for id, r := range rs.rates {
			s.Rates[id] = RateSpec{Max: r.max, Per: r.per}
		}
	}
	if len(rs.classRates) > 0 {
		s.ClassRates = make(map[string]RateSpec, len(rs.classRates))
		for c, r := range rs.classRates {
			s.ClassRates[string(c)] = RateSpec{Max: r.max, Per: r.per}
		}
	}
	return s
}

// rulesetHash computes the short content hash recorded in audit stamps:
// sha256 over the canonical JSON of the rules, version excluded, truncated
// to 12 hex chars. encoding/json sorts map keys and exportRules sorts every
// slice, so equal rules hash equally on every member.
func rulesetHash(rs *ruleset) string {
	data, err := json.Marshal(exportRules(rs))
	if err != nil {
		// Snapshot is plain maps/slices/ints; Marshal cannot fail. Keep a
		// deterministic sentinel rather than panicking the node.
		return "hash-error"
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:12]
}
