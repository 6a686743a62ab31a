// Package node is the transport-agnostic trusted-node service (§3.4): one
// concurrency-safe Service owns the cor vault, the policy engine, the
// malware DB, the audit log, the per-app dynamic-analysis monitors, and the
// injection/offload session state. App and session state is keyed by device
// ID, so a single Service instance serves many devices at once.
//
// Transports stay thin: internal/nodeproto's dispatch is the one place
// control requests become Service calls, whether they arrive over real TCP
// or over the simulation's virtual-time TCP (internal/core). Every caller
// sees the identical policy evaluation, audit trail and error taxonomy
// (errors.go), whose sentinels cross the wire as stable codes.
package node

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"tinman/internal/audit"
	"tinman/internal/cor"
	"tinman/internal/malware"
	"tinman/internal/obs"
	"tinman/internal/policy"
	"tinman/internal/store"
)

// Options configures a Service.
type Options struct {
	// Clock supplies the policy/audit timestamps; nil means time.Now.
	// Virtual-time simulations inject their own clock here.
	Clock func() time.Time
	// CorIdleWindow is the instruction budget before an offloaded thread
	// migrates back (§3.1); 0 uses the default.
	CorIdleWindow uint64
	// MalwareSeed sets how many synthetic entries seed the malware DB;
	// 0 means the default (1000, matching the paper's hash-DB scale test),
	// negative disables seeding.
	MalwareSeed int
	// Metrics, when set, counts policy checks/denials and vault opens.
	// Spans need no option: the service attributes policy_check and
	// vault_open children to whatever span rides in on the request context.
	Metrics *obs.Metrics
}

// defaultCorIdleWindow matches the pre-refactor node configuration.
const defaultCorIdleWindow = 1_000_000

// Service is the trusted-node brain behind every transport.
//
// The component fields (Cors, Policy, Audit, Malware) are themselves safe
// for concurrent use. All per-device state — hosted apps, armed
// injections, the session-state cache, the replay window, the derived-cor
// counter and the per-device audit sequence — lives in one DeviceShard per
// device (shard.go), the movable unit the fleet layer hands between nodes.
// The Service's own mutex guards only the shard table and the flow index.
type Service struct {
	Cors    *cor.Store
	Policy  *policy.Engine
	Audit   *audit.Log
	Malware *malware.DB

	corIdleWindow uint64

	mu     sync.RWMutex
	shards map[string]*DeviceShard
	// flows maps an armed injection's TCP flow to the device whose shard
	// holds it: payload replacement fires keyed by flow alone (fig 8), so
	// the index routes it to the right shard.
	flows map[InjectionKey]string

	// met holds the Options.Metrics collectors (nil-safe when unset).
	met serviceMetrics

	// clock stamps warm-up resume-latency samples (Options.Clock or
	// time.Now); warm holds the speculative warm-up counters.
	clock func() time.Time
	warm  warmCounters

	// dur, when set by AttachStore, is the crash-safe storage engine every
	// operation's records must reach before it is acknowledged. durMu
	// guards the pointer and serializes audit Seq minting with WAL enqueue
	// so Seq order equals LSN order (durable.go).
	durMu sync.Mutex
	dur   *store.Store
	// polMu serializes policy writes from install through WAL enqueue, so
	// the store logs documents in install order (writePolicy). It is taken
	// before durMu.
	polMu sync.Mutex
}

// serviceMetrics caches the service-level collectors.
type serviceMetrics struct {
	policyChecks  *obs.Counter
	policyDenials *obs.Counter
	vaultOpens    *obs.Counter
	warmHits      *obs.Counter
	warmMisses    *obs.Counter
	warmChunks    *obs.Counter
}

// warmCounters aggregates the speculative warm-up outcomes; atomics because
// the Service is concurrent and warm chunks arrive off the offload path.
type warmCounters struct {
	hits    atomic.Uint64
	misses  atomic.Uint64
	chunks  atomic.Uint64
	resumes atomic.Uint64 // offloads with timed resume latency
	// resumeNs accumulates node-side resume latency (migration decode to
	// first executed instruction) across all offloads.
	resumeNs atomic.Int64
}

// WarmStats is a snapshot of the node's speculative warm-up activity: how
// many warm-path offloads were admitted (hits) vs rejected stale (misses),
// how many background chunks were applied, and the mean node-side resume
// latency across offloads.
type WarmStats struct {
	Hits   uint64
	Misses uint64
	Chunks uint64
	// AvgResumeNs is the mean time from migration arrival to the first node
	// instruction (0 when no offload ran).
	AvgResumeNs int64
}

// WarmStats returns the current warm-up counters.
func (s *Service) WarmStats() WarmStats {
	ws := WarmStats{
		Hits:   s.warm.hits.Load(),
		Misses: s.warm.misses.Load(),
		Chunks: s.warm.chunks.Load(),
	}
	if n := s.warm.resumes.Load(); n > 0 {
		ws.AvgResumeNs = s.warm.resumeNs.Load() / int64(n)
	}
	return ws
}

// New assembles a Service.
func New(opts Options) *Service {
	if opts.CorIdleWindow == 0 {
		opts.CorIdleWindow = defaultCorIdleWindow
	}
	s := &Service{
		Cors:          cor.NewStore(),
		Policy:        policy.NewEngine(opts.Clock),
		Audit:         audit.NewLog(opts.Clock),
		Malware:       malware.NewDB(),
		corIdleWindow: opts.CorIdleWindow,
		shards:        make(map[string]*DeviceShard),
		flows:         make(map[InjectionKey]string),
		clock:         opts.Clock,
	}
	if s.clock == nil {
		s.clock = time.Now
	}
	if m := opts.Metrics; m != nil {
		s.met = serviceMetrics{
			policyChecks:  m.Counter("tinman_policy_checks_total"),
			policyDenials: m.Counter("tinman_policy_denials_total"),
			vaultOpens:    m.Counter("tinman_vault_opens_total"),
			warmHits:      m.Counter("tinman_warm_hits_total"),
			warmMisses:    m.Counter("tinman_warm_misses_total"),
			warmChunks:    m.Counter("tinman_warmup_chunks_total"),
		}
		// The engine keeps its own per-reason denial counters below the
		// service-level totals.
		s.Policy.SetMetrics(m)
	}
	if opts.MalwareSeed >= 0 {
		seed := opts.MalwareSeed
		if seed == 0 {
			seed = 1000
		}
		s.Malware.SeedSynthetic(seed)
	}
	s.Policy.SetMalwareCheck(s.Malware.Contains)
	return s
}

// --- cor administration (the safe-environment setup of §2.3) ---

// RegisterCor initializes a cor with known plaintext. A non-nil whitelist
// becomes the cor's entry in the policy document (empty: never sent); a nil
// one leaves the document alone, so the cor may go to any domain. The vault
// record and the policy document are one commit: a recovered cor never
// lacks its whitelist.
func (s *Service) RegisterCor(ctx context.Context, id, plaintext, description string, whitelist ...string) (*cor.Record, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rec, err := s.Cors.Register(id, plaintext, description)
	if err != nil {
		return nil, badRequest(err)
	}
	var op opRecords
	op.vault(rec)
	if whitelist != nil {
		_, err = s.writePolicy(&op, func(d *policy.Snapshot) { d.AllowDomains(id, whitelist) })
	} else {
		err = commit(s.enqueue(&op), nil)
	}
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// Catalog returns the device-visible cor metadata (the selection-widget
// content, §4.1). The underlying store returns a stable snapshot slice, so
// transports may cache conversions keyed on slice identity.
func (s *Service) Catalog(ctx context.Context) ([]cor.DeviceView, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.Cors.DeviceViews(), nil
}

// --- policy administration ---
//
// Every policy change installs a whole document through writePolicy
// (durable.go); with a store attached, the document is fsynced before the
// change is acknowledged.

// BindApp restricts a cor to an app hash (§3.4 first binding).
func (s *Service) BindApp(corID, appHash string) error {
	_, err := s.writePolicy(new(opRecords), func(d *policy.Snapshot) { d.Bind(corID, appHash) })
	return err
}

// Revoke cuts off a device ("if a user realizes her phone is stolen", §3.4).
func (s *Service) Revoke(deviceID string) error {
	_, err := s.writePolicy(new(opRecords), func(d *policy.Snapshot) { d.Revoke(deviceID) })
	return err
}

// Restore re-enables a device.
func (s *Service) Restore(deviceID string) error {
	_, err := s.writePolicy(new(opRecords), func(d *policy.Snapshot) { d.Restore(deviceID) })
	return err
}

// InstallPolicy validates and atomically installs a whole-policy snapshot
// in place of the enforced one (the control plane's hot-reload). An
// explicit Version must exceed the enforced one.
func (s *Service) InstallPolicy(ctx context.Context, snap *policy.Snapshot) (policy.Stamp, error) {
	if err := ctx.Err(); err != nil {
		return policy.Stamp{}, err
	}
	if snap == nil {
		return policy.Stamp{}, errf(ErrBadRequest, "nil policy snapshot")
	}
	return s.writePolicy(new(opRecords), func(d *policy.Snapshot) { *d = *snap })
}

// SetCorClass reassigns the sensitivity tier of a cor's whole lineage:
// every cor that shares its taint bit, derived ones included. Each of
// their records is committed again in the operation's one Append (vault
// records are upserts), so the class survives restarts.
func (s *Service) SetCorClass(ctx context.Context, corID string, class cor.Class) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := s.Cors.SetClass(corID, class); err != nil {
		return badRequest(err)
	}
	bit := s.Cors.Get(corID).Bit
	var op opRecords
	for _, rec := range s.Cors.List() {
		if rec.Bit == bit {
			op.vault(rec)
		}
	}
	return commit(s.enqueue(&op), nil)
}

// --- audit ---

// AuditQuery returns matching audit entries.
func (s *Service) AuditQuery(ctx context.Context, q audit.Query) ([]audit.Entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.Audit.Find(q), nil
}

// lineageID maps a cor to the ID its policy rules are registered under:
// a derived cor (the concatenated request of fig 11) carries its parent's
// taint bit, and bindings/whitelists are registered on the parent.
func (s *Service) lineageID(rec *cor.Record) string {
	if parent := s.Cors.ByBit(rec.Bit); parent != nil {
		return parent.ID
	}
	return rec.ID
}

// checkSend runs the send-time policy check (§3.4 second binding) for a
// cor's lineage and notes the audit entry for a denial in op. The decision
// is attributed as a policy_check child of whatever span rides on ctx. The
// returned stamp names the exact policy version consulted; callers note
// the allowed-path entry under the same stamp, so it carries that version
// even if a hot-reload lands in between.
func (s *Service) checkSend(ctx context.Context, op *opRecords, rec *cor.Record, appHash, deviceID, domain, ip string) (checkID string, stamp policy.Stamp, err error) {
	checkID = s.lineageID(rec)
	var span *obs.Span
	if parent := obs.SpanFromContext(ctx); parent != nil {
		span = parent.Child(obs.PhasePolicyCheck,
			obs.Cor(checkID), obs.App(appHash), obs.Domain(domain))
	}
	s.met.policyChecks.Inc()
	acc := policy.Access{
		CorID:    checkID,
		AppHash:  appHash,
		DeviceID: deviceID,
		Class:    rec.Class,
		Send:     true,
		Domain:   domain,
		IP:       ip,
	}
	stamp, perr := s.Policy.CheckStamped(acc)
	if perr != nil {
		s.met.policyDenials.Inc()
		op.note(stamp, appHash, checkID, deviceID, domain, audit.OutcomeDenied, perr.Error())
		if d, ok := policy.IsDenial(perr); ok {
			span.Add(obs.Outcome(false), obs.Reason(d.Reason.String()))
			span.End()
			return checkID, stamp, denied(d)
		}
		span.Add(obs.Outcome(false), obs.Err(obs.ErrBadRequest))
		span.End()
		return checkID, stamp, badRequest(perr)
	}
	span.Add(obs.Outcome(true))
	span.End()
	return checkID, stamp, nil
}
