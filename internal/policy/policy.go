// Package policy implements the trusted node's security enforcement (§3.4):
// the two bindings — application↔cor (by dex hash) and cor↔domain (with
// auth-endpoint IP narrowing) — plus revocation, time windows, rate limits
// (§4.2) and per-class rate budgets. Every cor access on the trusted node
// passes through an Engine before the cor is released to offloaded code or
// the network.
//
// The Engine is a versioned, hot-swappable ruleset: all rules live in one
// immutable ruleset behind an atomic pointer; the only way they change is
// installing a whole numbered document (a Snapshot); and each Check runs
// start-to-finish against the version it loaded — an in-flight check never
// observes a half-applied change, and the (version, hash) stamp it ran
// under is reported for audit.
package policy

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tinman/internal/cor"
	"tinman/internal/obs"
)

// Reason classifies a denial. The numeric value is the stable wire code
// (see Code/ReasonFromCode): new reasons are appended, never reordered.
type Reason uint8

const (
	// ReasonAppNotBound: the requesting app's dex hash is not bound to the
	// cor — the phishing-app defense (§5.2).
	ReasonAppNotBound Reason = iota
	// ReasonDomainNotAllowed: the target domain is outside the cor's
	// whitelist.
	ReasonDomainNotAllowed
	// ReasonIPNotAuthEndpoint: the domain is whitelisted but the specific
	// IP is not one of its authentication endpoints (the Facebook-comment
	// attack defense, §3.4).
	ReasonIPNotAuthEndpoint
	// ReasonRevoked: the device's access was revoked (stolen phone, §3.4).
	ReasonRevoked
	// ReasonOutsideTimeWindow: the access falls outside the allowed hours
	// (§4.2).
	ReasonOutsideTimeWindow
	// ReasonRateLimited: the access frequency limit was exceeded (§4.2) —
	// either the cor's own budget or its sensitivity class's shared budget.
	ReasonRateLimited
	// ReasonMalware: the app hash is in the malware database.
	ReasonMalware
	// ReasonNeverSend: the cor has an empty whitelist and may never be sent
	// anywhere ("the private key of bitcoin cannot be sent out", §3.4).
	ReasonNeverSend
	// ReasonServerOnlyClass: a server-only cor would have shipped in a DSM
	// warm-up or migration payload. Enforced by the dsm layer and at node
	// admission rather than in check(), but carried as a policy reason so
	// denials audit and cross the wire uniformly.
	ReasonServerOnlyClass
)

var reasonNames = [...]string{
	ReasonAppNotBound:       "app not bound to cor",
	ReasonDomainNotAllowed:  "target domain not in whitelist",
	ReasonIPNotAuthEndpoint: "target IP is not an authentication endpoint",
	ReasonRevoked:           "device access revoked",
	ReasonOutsideTimeWindow: "outside allowed time window",
	ReasonRateLimited:       "access rate limit exceeded",
	ReasonMalware:           "application is known malware",
	ReasonNeverSend:         "cor may never leave the trusted node",
	ReasonServerOnlyClass:   "server-only cor may not ship in DSM payloads",
}

func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("Reason(%d)", uint8(r))
}

// Code returns the stable numeric wire code for the reason. Codes are the
// iota values above and survive renames of the display text.
func (r Reason) Code() int { return int(r) }

// ReasonFromCode is the inverse of Code, used when a denial crosses the
// wire numerically. It rejects codes this build does not know.
func ReasonFromCode(c int) (Reason, bool) {
	if c < 0 || c >= len(reasonNames) {
		return 0, false
	}
	return Reason(c), true
}

// NumReasons reports how many reasons are defined — the wire round-trip
// test iterates them.
func NumReasons() int { return len(reasonNames) }

// ErrDenied is the sentinel every *Denial matches via errors.Is, so
// callers can branch on "policy said no" without caring which rule fired.
var ErrDenied = errors.New("policy: access denied")

// Denial is the typed error returned for refused accesses.
type Denial struct {
	Reason Reason
	CorID  string
	Detail string
}

func (d *Denial) Error() string {
	s := fmt.Sprintf("policy: %s denied: %s", d.CorID, d.Reason)
	if d.Detail != "" {
		s += " (" + d.Detail + ")"
	}
	return s
}

// Is makes every denial match ErrDenied under errors.Is.
func (d *Denial) Is(target error) bool { return target == ErrDenied }

// IsDenial extracts a Denial from an error, unwrapping as needed.
func IsDenial(err error) (*Denial, bool) {
	var d *Denial
	if errors.As(err, &d) {
		return d, true
	}
	return nil, false
}

// Access describes one attempted cor use.
type Access struct {
	CorID    string
	AppHash  string
	DeviceID string
	// Class is the cor's sensitivity tier; the zero value skips class
	// budgets (callers that know the cor pass its class from the vault).
	Class cor.Class
	// Send marks a network egress attempt; Domain/IP are the destination.
	// Non-send accesses (hashing a password inside offloaded code) check
	// only bindings, revocation, window and rate.
	Send   bool
	Domain string
	IP     string
}

// Window is an allowed daily time range [From, To) in hours; e.g. 10–22 for
// "10:00 am to 10:00 pm" (§4.2). From == To means always allowed.
type Window struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// contains checks an instant against the window, handling overnight ranges.
func (w Window) contains(t time.Time) bool {
	if w.From == w.To {
		return true
	}
	h := t.Hour()
	if w.From < w.To {
		return h >= w.From && h < w.To
	}
	return h >= w.From || h < w.To
}

// rate tracks a sliding-window access count. It is the one mutable cell
// inside an otherwise immutable ruleset: its own mutex keeps counter
// updates off the swap path, and rulesets that keep the same (max, per)
// spec share the *rate pointer so consumed budget survives hot-swaps.
type rate struct {
	mu     sync.Mutex
	max    int
	per    time.Duration
	events []time.Time
}

// allow consumes one unit of rate budget at instant now, reporting how
// many events were live when it was refused.
func (r *rate) allow(now time.Time) (ok bool, live int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cutoff := now.Add(-r.per)
	kept := r.events[:0]
	for _, ev := range r.events {
		if ev.After(cutoff) {
			kept = append(kept, ev)
		}
	}
	r.events = kept
	if len(r.events) >= r.max {
		return false, len(r.events)
	}
	r.events = append(r.events, now)
	return true, 0
}

// sameSpec reports whether the limit's shape matches, making the live
// counter reusable across an Install.
func (r *rate) sameSpec(max int, per time.Duration) bool {
	return r != nil && r.max == max && r.per == per
}

// ruleset is one installed policy document. After publication nothing in
// it is written again (the *rate cells self-synchronize), so readers
// navigate it without any lock.
type ruleset struct {
	// version is the installed document's version; it rises with every
	// Install.
	version uint64
	// hash is a short content hash of the rules (version excluded), so two
	// members holding identical rules agree on it.
	hash string

	appBindings map[string]map[string]bool // cor -> allowed app hashes
	whitelist   map[string][]string        // cor -> domains (absent = unrestricted send, empty = never send)
	authIPs     map[string][]string        // domain -> authentication endpoint IPs
	authOnly    map[string]bool            // cor -> restrict to auth IPs
	revoked     map[string]bool            // device -> revoked
	windows     map[string]Window          // cor -> daily window
	rates       map[string]*rate           // cor -> rate limit
	classRates  map[cor.Class]*rate        // class -> shared rate budget
	malware     func(appHash string) bool  // malware DB lookup (not part of the hash)
}

func emptyRuleset() *ruleset {
	return &ruleset{
		appBindings: make(map[string]map[string]bool),
		whitelist:   make(map[string][]string),
		authIPs:     make(map[string][]string),
		authOnly:    make(map[string]bool),
		revoked:     make(map[string]bool),
		windows:     make(map[string]Window),
		rates:       make(map[string]*rate),
		classRates:  make(map[cor.Class]*rate),
	}
}

// Stamp identifies the exact policy a decision was made under: the
// monotonic version plus the content hash. Both ride every audit entry.
type Stamp struct {
	Version uint64
	Hash    string
}

// Engine evaluates accesses. The clock is injectable so virtual-time
// simulations enforce windows and rates on simulated time.
//
// Policy changes only by installing a whole Snapshot (Install, or Update's
// read-modify-write): the writer serializes on writeMu, builds the new
// ruleset and publishes it with one atomic store. The hot Check path —
// every reseal on a loaded trusted node — loads the pointer once and runs
// lock-free against that version; concurrent checks never serialize on
// each other or on a swap.
type Engine struct {
	writeMu sync.Mutex
	cur     atomic.Pointer[ruleset]

	now func() time.Time

	// met holds the engine's own decision collectors (distinct from the
	// caller-level counters in node.Service): every collector is nil when
	// SetMetrics was never called, and nil collectors are no-ops.
	met struct {
		checks       *obs.Counter
		denials      map[Reason]*obs.Counter
		classDenials map[cor.Class]*obs.Counter
	}
}

// NewEngine creates an engine reading time from now (nil means time.Now).
func NewEngine(now func() time.Time) *Engine {
	if now == nil {
		now = time.Now
	}
	e := &Engine{now: now}
	rs := emptyRuleset()
	rs.hash = rulesetHash(rs)
	e.cur.Store(rs)
	return e
}

// SetMalwareCheck installs the malware-database lookup. The function rides
// the ruleset (so checks see one consistent pair of rules + lookup) but is
// code, not data: it leaves the version and hash alone, and Install
// carries it forward unchanged.
func (e *Engine) SetMalwareCheck(fn func(appHash string) bool) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	next := *e.cur.Load()
	next.malware = fn
	e.cur.Store(&next)
}

// SetMetrics registers the engine's decision counters — total checks,
// per-reason and per-class denials — with an obs registry. Call before
// concurrent use; a nil registry leaves the engine uninstrumented.
func (e *Engine) SetMetrics(m *obs.Metrics) {
	if m == nil {
		return
	}
	e.met.checks = m.Counter("tinman_policy_engine_checks_total")
	e.met.denials = make(map[Reason]*obs.Counter, len(reasonNames))
	for r := ReasonAppNotBound; int(r) < len(reasonNames); r++ {
		e.met.denials[r] = m.Counter(fmt.Sprintf(`tinman_policy_engine_denials_total{reason=%q}`, r.String()))
	}
	e.met.classDenials = make(map[cor.Class]*obs.Counter, 3)
	for _, c := range cor.Classes() {
		e.met.classDenials[c] = m.Counter(fmt.Sprintf(`tinman_policy_engine_class_denials_total{class=%q}`, string(c)))
	}
}

// Stamp returns the current policy version and content hash without
// evaluating anything — what an admin or audit path records when no single
// check is in play.
func (e *Engine) Stamp() Stamp {
	rs := e.cur.Load()
	return Stamp{Version: rs.version, Hash: rs.hash}
}

// Version returns the version of the installed document (0 before the
// first Install).
func (e *Engine) Version() uint64 { return e.cur.Load().version }

// Check evaluates an access, recording it against the rate limit when
// allowed. It returns nil or a *Denial with the first violated rule's
// Reason.
func (e *Engine) Check(a Access) error {
	_, err := e.CheckStamped(a)
	return err
}

// CheckStamped evaluates an access and reports the exact policy version it
// was decided under. The ruleset pointer is loaded once: a concurrent
// Install never tears the rules mid-check, and the
// returned Stamp is precisely the version the verdict belongs to.
func (e *Engine) CheckStamped(a Access) (Stamp, error) {
	rs := e.cur.Load()
	err := rs.check(a, e.now())
	e.met.checks.Inc()
	if d, ok := IsDenial(err); ok {
		e.met.denials[d.Reason].Inc()
		if a.Class != "" {
			e.met.classDenials[a.Class].Inc()
		}
	}
	return Stamp{Version: rs.version, Hash: rs.hash}, err
}

func (rs *ruleset) check(a Access, now time.Time) error {
	if rs.malware != nil && rs.malware(a.AppHash) {
		return &Denial{Reason: ReasonMalware, CorID: a.CorID, Detail: "hash " + short(a.AppHash)}
	}
	if rs.revoked[a.DeviceID] {
		return &Denial{Reason: ReasonRevoked, CorID: a.CorID, Detail: "device " + a.DeviceID}
	}
	if m, bound := rs.appBindings[a.CorID]; bound && !m[a.AppHash] {
		return &Denial{Reason: ReasonAppNotBound, CorID: a.CorID, Detail: "hash " + short(a.AppHash)}
	}
	if w, ok := rs.windows[a.CorID]; ok && !w.contains(now) {
		return &Denial{Reason: ReasonOutsideTimeWindow, CorID: a.CorID,
			Detail: fmt.Sprintf("hour %d not in [%d,%d)", now.Hour(), w.From, w.To)}
	}

	if a.Send {
		if wl, ok := rs.whitelist[a.CorID]; ok {
			if len(wl) == 0 {
				return &Denial{Reason: ReasonNeverSend, CorID: a.CorID}
			}
			allowed := false
			for _, d := range wl {
				if domainMatch(a.Domain, d) {
					allowed = true
					break
				}
			}
			if !allowed {
				return &Denial{Reason: ReasonDomainNotAllowed, CorID: a.CorID, Detail: a.Domain}
			}
		}
		if rs.authOnly[a.CorID] {
			ips := rs.authIPs[a.Domain]
			found := false
			for _, ip := range ips {
				if ip == a.IP {
					found = true
					break
				}
			}
			if !found {
				return &Denial{Reason: ReasonIPNotAuthEndpoint, CorID: a.CorID,
					Detail: fmt.Sprintf("%s not an auth endpoint of %s", a.IP, a.Domain)}
			}
		}
	}

	// The frequency limits count egress uses ("the access frequency could
	// not exceed a preset limitation", §4.2): local offloaded computation
	// over the cor does not consume budget, sending it out does. The class
	// budget is consumed first — a cor-level refusal after that burns one
	// unit of the shared class budget, which errs on the safe side.
	if a.Send {
		if r, ok := rs.classRates[a.Class]; ok && a.Class != "" {
			if ok, live := r.allow(now); !ok {
				return &Denial{Reason: ReasonRateLimited, CorID: a.CorID,
					Detail: fmt.Sprintf("class %s: %d accesses in %v", a.Class, live, r.per)}
			}
		}
		if r, ok := rs.rates[a.CorID]; ok {
			if ok, live := r.allow(now); !ok {
				return &Denial{Reason: ReasonRateLimited, CorID: a.CorID,
					Detail: fmt.Sprintf("%d accesses in %v", live, r.per)}
			}
		}
	}
	return nil
}

// domainMatch matches exact domains and subdomains ("login.bank.com"
// matches whitelist entry "bank.com").
func domainMatch(domain, pattern string) bool {
	if domain == pattern {
		return true
	}
	return len(domain) > len(pattern)+1 &&
		domain[len(domain)-len(pattern):] == pattern &&
		domain[len(domain)-len(pattern)-1] == '.'
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
