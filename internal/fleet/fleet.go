package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"tinman/internal/audit"
	"tinman/internal/node"
	"tinman/internal/obs"
	"tinman/internal/policy"
)

// Fleet-level error taxonomy.
var (
	// ErrNoHealthyMembers means every member is down or cordoned.
	ErrNoHealthyMembers = errors.New("fleet: no healthy members")
	// ErrUnknownMember marks references to a member ID the fleet has never
	// heard of.
	ErrUnknownMember = errors.New("fleet: unknown member")
	// ErrMemberDown marks operations against a crashed member.
	ErrMemberDown = errors.New("fleet: member is down")
)

// Config assembles a Fleet.
type Config struct {
	// MemberIDs names the trusted nodes; each gets its own node.Service.
	MemberIDs []string
	// NodeOptions configures every member's Service (clock, malware seed…).
	// Options.Metrics is ignored here — pass Metrics below instead, and the
	// fleet derives per-member collectors from it.
	NodeOptions node.Options
	// NewService, when set, constructs each member's Service — the hook for
	// durable deployments, where the factory opens the member's crash-safe
	// store and attaches it (node.Service.AttachStore) before the fleet
	// replays the admin log. Recover calls it again for the restarted
	// member, so a member rejoins with its own durable state instead of an
	// empty Service. Nil falls back to node.New(NodeOptions).
	NewService func(memberID string) (*node.Service, error)
	// Metrics, when set, receives the fleet-level collectors (handoffs,
	// failovers, per-member device gauges and request counters).
	Metrics *obs.Metrics
}

// member is one trusted node plus its fleet-side bookkeeping.
type member struct {
	id  string
	svc *node.Service
	// down marks a crashed member: its Service state is considered lost and
	// its devices fail over lazily on their next request.
	down bool
	// cordoned excludes the member from new placements (set by Drain) while
	// existing traffic finishes moving.
	cordoned bool
	// probe, when set, gates health externally — e.g. on a netsim Host's
	// up/down state — so a simulated network can kill a node.
	probe func() bool

	devices  *obs.Gauge
	requests *obs.Counter
}

// adminOp is one replicated cor registration or reclassification. The fleet
// applies it to every healthy member when issued and replays the full log
// onto a member that recovers, so registered cors and their classes are
// identical fleet-wide — this is what makes a crash lose no registered cor.
// Policy is not in the log: it travels as whole documents (policy.go).
type adminOp func(*node.Service) error

// Fleet routes devices across trusted-node members by consistent hash.
//
// Placement is sticky: the ring decides where a device lands on first touch
// and after failover/drain, but a healthy member keeps its shards until an
// explicit Drain or Rebalance — routing never silently moves live state.
type Fleet struct {
	nodeOpts   node.Options
	newService func(memberID string) (*node.Service, error)

	mu      sync.RWMutex
	members map[string]*member
	order   []string // MemberIDs order, for deterministic iteration
	ring    *ring
	// owners maps each device to the member hosting its shard.
	owners   map[string]string
	adminLog []adminOp

	// watermarks tracks the highest per-device audit sequence seen anywhere
	// in the fleet (fed by each member's audit subscription). On crash
	// failover the new owner's shard starts above the watermark, keeping
	// the merged per-device audit stream gap-free even though the dead
	// node's shard (and its counter) is gone.
	wmMu       sync.Mutex
	watermarks map[string]uint64

	// Policy state (policy.go), guarded by polMu, never f.mu — pushes run
	// member installs without blocking routing. doc holds the fleet's
	// current document in an engine of its own, for its validation,
	// numbering and hash; it enforces nothing. applied is the version each
	// member is known to hold.
	polMu   sync.Mutex
	doc     *policy.Engine
	applied map[string]uint64

	handoffs  *obs.Counter
	failovers *obs.Counter
}

// New builds the fleet and its members.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.MemberIDs) == 0 {
		return nil, errors.New("fleet: need at least one member")
	}
	opts := cfg.NodeOptions
	opts.Metrics = nil
	f := &Fleet{
		nodeOpts:   opts,
		newService: cfg.NewService,
		members:    make(map[string]*member),
		owners:     make(map[string]string),
		watermarks: make(map[string]uint64),
		doc:        policy.NewEngine(nil),
		applied:    make(map[string]uint64),
	}
	if f.newService == nil {
		f.newService = func(string) (*node.Service, error) { return node.New(opts), nil }
	}
	if m := cfg.Metrics; m != nil {
		f.handoffs = m.Counter("tinman_fleet_handoffs_total")
		f.failovers = m.Counter("tinman_fleet_failovers_total")
	}
	for _, id := range cfg.MemberIDs {
		if _, dup := f.members[id]; dup {
			return nil, fmt.Errorf("fleet: duplicate member %q", id)
		}
		svc, err := f.newService(id)
		if err != nil {
			return nil, fmt.Errorf("fleet: building member %q: %w", id, err)
		}
		mem := &member{id: id, svc: svc}
		if m := cfg.Metrics; m != nil {
			mem.devices = m.Gauge("tinman_fleet_member_" + metricName(id) + "_devices")
			mem.requests = m.Counter("tinman_fleet_member_" + metricName(id) + "_requests_total")
		}
		f.subscribeWatermarks(mem.svc)
		f.members[id] = mem
		f.order = append(f.order, id)
	}
	f.ring = buildRing(f.order)

	// Durable members may have recovered policy documents; the fleet's
	// current document is the newest of them, so the next push is numbered
	// above every version a member holds.
	var newest *node.Service
	for _, id := range f.order {
		svc := f.members[id].svc
		f.applied[id] = svc.Policy.Version()
		if newest == nil || svc.Policy.Version() > newest.Policy.Version() {
			newest = svc
		}
	}
	if newest.Policy.Version() != 0 {
		if _, err := f.doc.Install(newest.Policy.Export()); err != nil {
			return nil, fmt.Errorf("fleet: adopting the members' policy: %w", err)
		}
	}
	return f, nil
}

// metricName maps a member ID into the metric-name charset.
func metricName(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, id)
}

// subscribeWatermarks feeds the fleet watermark table from a member's log.
func (f *Fleet) subscribeWatermarks(svc *node.Service) {
	svc.Audit.Subscribe(func(e audit.Entry) {
		if e.DeviceID == "" || e.DeviceSeq == 0 {
			return
		}
		f.wmMu.Lock()
		if e.DeviceSeq > f.watermarks[e.DeviceID] {
			f.watermarks[e.DeviceID] = e.DeviceSeq
		}
		f.wmMu.Unlock()
	})
}

// watermark returns the fleet-wide audit floor for a device.
func (f *Fleet) watermark(deviceID string) uint64 {
	f.wmMu.Lock()
	defer f.wmMu.Unlock()
	return f.watermarks[deviceID]
}

// healthyLocked reports whether a member can serve; callers hold f.mu.
func (f *Fleet) healthyLocked(id string) bool {
	m := f.members[id]
	if m == nil || m.down {
		return false
	}
	if m.probe != nil && !m.probe() {
		return false
	}
	return true
}

// placeableLocked additionally excludes cordoned members from new placement.
func (f *Fleet) placeableLocked(id string) bool {
	return f.healthyLocked(id) && !f.members[id].cordoned
}

// Members lists member IDs in configuration order.
func (f *Fleet) Members() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]string(nil), f.order...)
}

// MemberService exposes a member's Service (tests, tinbench, audit export).
// It is available even for a down member — the caller is the simulation's
// god view — but routing never sends traffic there.
func (f *Fleet) MemberService(id string) (*node.Service, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	m := f.members[id]
	if m == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownMember, id)
	}
	return m.svc, nil
}

// SetHealthProbe gates a member's health on fn (e.g. a netsim host's
// up/down state). A nil fn removes the gate.
func (f *Fleet) SetHealthProbe(id string, fn func() bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.members[id]
	if m == nil {
		return fmt.Errorf("%w: %q", ErrUnknownMember, id)
	}
	m.probe = fn
	return nil
}

// Owner reports which member the fleet routes the device to right now,
// without attaching anything.
func (f *Fleet) Owner(deviceID string) (string, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.ownerLocked(deviceID)
}

func (f *Fleet) ownerLocked(deviceID string) (string, error) {
	if cur, ok := f.owners[deviceID]; ok && f.healthyLocked(cur) {
		return cur, nil
	}
	id, ok := f.ring.lookup(deviceID, f.placeableLocked)
	if !ok {
		return "", ErrNoHealthyMembers
	}
	return id, nil
}

// ServiceFor resolves the device's owning member, failing the device over
// (with the audit watermark as sequence floor) if its previous owner is
// down. It returns the member's Service and ID; every device-keyed request
// path goes through here.
func (f *Fleet) ServiceFor(deviceID string) (*node.Service, string, error) {
	f.mu.Lock()
	cur, had := f.owners[deviceID]
	if had && f.healthyLocked(cur) {
		m := f.members[cur]
		m.requests.Inc()
		f.mu.Unlock()
		return m.svc, cur, nil
	}
	id, ok := f.ring.lookup(deviceID, f.placeableLocked)
	if !ok {
		f.mu.Unlock()
		return nil, "", ErrNoHealthyMembers
	}
	m := f.members[id]
	f.owners[deviceID] = id
	failedOver := had && cur != id
	m.requests.Inc()
	m.devices.Inc()
	if had {
		if old := f.members[cur]; old != nil && cur != id {
			old.devices.Dec()
		}
	}
	f.mu.Unlock()
	if failedOver {
		f.failovers.Inc()
	}
	// Attach above the fleet-wide audit watermark (outside the fleet lock —
	// the floor raise touches only the shard). Every assignment uses the
	// floor, not just observed failovers: a device whose owner crashed and
	// recovered re-places through here with no prior owners entry, and its
	// fresh shard must still continue the audit sequence.
	m.svc.AttachShard(deviceID, f.watermark(deviceID))
	return m.svc, id, nil
}

// Accept resolves ownership for a device-keyed request arriving at member
// selfID, with full assignment semantics: the device is (re)assigned
// through the same path as ServiceFor, so a failover applies the audit
// watermark floor to the new owner's shard no matter which member the
// request physically reached. It reports whether selfID is the owner;
// when false, owner names the member to redirect to. The wire servers
// (nodeproto) gate every device-keyed request through this.
func (f *Fleet) Accept(deviceID, selfID string) (accept bool, owner string, err error) {
	_, owner, err = f.ServiceFor(deviceID)
	if err != nil {
		return false, "", err
	}
	return owner == selfID, owner, nil
}

// Crash marks a member down; its in-memory state is treated as lost.
// Devices it hosted fail over lazily: their next ServiceFor lands on the
// ring's next healthy member with the audit watermark as floor.
func (f *Fleet) Crash(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.members[id]
	if m == nil {
		return fmt.Errorf("%w: %q", ErrUnknownMember, id)
	}
	m.down = true
	return nil
}

// Recover brings a crashed member back with a fresh Service — a restarted
// process has none of its pre-crash memory — replays the admin log so it
// carries the fleet-wide registered cors, and installs the fleet's current
// policy document if the member is behind it. It owns no devices until
// Rebalance (or new placements) route some to it.
func (f *Fleet) Recover(id string) error {
	f.mu.Lock()
	m := f.members[id]
	if m == nil {
		f.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownMember, id)
	}
	log := append([]adminOp(nil), f.adminLog...)
	f.mu.Unlock()

	// A durable member restarts from its own store (cfg.NewService recovers
	// and attaches it); the admin-log replay and the policy install below
	// then top up whatever the member missed while down. Replay must
	// therefore be idempotent against already-recovered state.
	svc, err := f.newService(id)
	if err != nil {
		return fmt.Errorf("fleet: rebuilding member %q: %w", id, err)
	}

	for _, op := range log {
		if err := op(svc); err != nil {
			return fmt.Errorf("fleet: replaying admin log onto %q: %w", id, err)
		}
	}
	f.subscribeWatermarks(svc)

	f.polMu.Lock()
	if svc.Policy.Version() < f.doc.Version() {
		if _, err := svc.InstallPolicy(context.Background(), f.doc.Export()); err != nil {
			f.polMu.Unlock()
			return fmt.Errorf("fleet: installing policy v%d onto %q: %w", f.doc.Version(), id, err)
		}
	}
	f.applied[id] = svc.Policy.Version()
	f.polMu.Unlock()

	f.mu.Lock()
	m.svc = svc
	m.down = false
	m.cordoned = false
	m.devices.Set(0)
	// Drop stale ownership: devices last seen on the pre-crash incarnation
	// re-place through ServiceFor, which applies the audit watermark floor
	// to the fresh shard.
	for dev, cur := range f.owners {
		if cur == id {
			delete(f.owners, dev)
		}
	}
	f.mu.Unlock()
	return nil
}

// Handoff moves one device's shard to the target member via detach/export →
// import. On import failure the export is restored onto the source, so the
// device is never left ownerless.
func (f *Fleet) Handoff(ctx context.Context, deviceID, toID string) error {
	f.mu.Lock()
	cur, ok := f.owners[deviceID]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("fleet: device %q has no shard to hand off", deviceID)
	}
	src := f.members[cur]
	dst := f.members[toID]
	if dst == nil {
		f.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownMember, toID)
	}
	if !f.healthyLocked(cur) {
		f.mu.Unlock()
		return fmt.Errorf("%w: %q (use failover, not handoff)", ErrMemberDown, cur)
	}
	if !f.healthyLocked(toID) {
		f.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrMemberDown, toID)
	}
	f.mu.Unlock()
	if cur == toID {
		return nil
	}

	exp, err := src.svc.DetachShard(deviceID)
	if err != nil {
		return fmt.Errorf("fleet: detaching %q from %q: %w", deviceID, cur, err)
	}
	if err := dst.svc.ImportShard(ctx, exp); err != nil {
		// Roll back: the source re-imports its own export.
		if rerr := src.svc.ImportShard(ctx, exp); rerr != nil {
			return fmt.Errorf("fleet: import into %q failed (%v) and rollback failed: %w", toID, err, rerr)
		}
		return fmt.Errorf("fleet: importing %q into %q: %w", deviceID, toID, err)
	}

	f.mu.Lock()
	f.owners[deviceID] = toID
	src.devices.Dec()
	dst.devices.Inc()
	f.mu.Unlock()
	f.handoffs.Inc()
	return nil
}

// Drain cordons a member and moves every device it hosts to its new ring
// owner. The member stays healthy throughout — this is the planned-
// maintenance path, with at-most-once preserved by the exported replay
// windows. Returns how many devices moved.
func (f *Fleet) Drain(ctx context.Context, id string) (int, error) {
	f.mu.Lock()
	m := f.members[id]
	if m == nil {
		f.mu.Unlock()
		return 0, fmt.Errorf("%w: %q", ErrUnknownMember, id)
	}
	if !f.healthyLocked(id) {
		f.mu.Unlock()
		return 0, fmt.Errorf("%w: %q", ErrMemberDown, id)
	}
	m.cordoned = true
	f.mu.Unlock()

	moved := 0
	for _, dev := range m.svc.Devices() {
		f.mu.RLock()
		target, ok := f.ring.lookup(dev, f.placeableLocked)
		f.mu.RUnlock()
		if !ok {
			return moved, ErrNoHealthyMembers
		}
		if err := f.Handoff(ctx, dev, target); err != nil {
			return moved, err
		}
		moved++
	}
	return moved, nil
}

// Uncordon re-admits a drained member for new placements.
func (f *Fleet) Uncordon(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.members[id]
	if m == nil {
		return fmt.Errorf("%w: %q", ErrUnknownMember, id)
	}
	m.cordoned = false
	return nil
}

// Rebalance moves every device whose current (healthy) host differs from
// its ring owner — the cleanup pass after membership changes. Returns how
// many devices moved.
func (f *Fleet) Rebalance(ctx context.Context) (int, error) {
	f.mu.RLock()
	type move struct{ dev, to string }
	var moves []move
	for dev, cur := range f.owners {
		if !f.healthyLocked(cur) {
			continue // failover handles these lazily
		}
		want, ok := f.ring.lookup(dev, f.placeableLocked)
		if ok && want != cur {
			moves = append(moves, move{dev, want})
		}
	}
	f.mu.RUnlock()
	for _, mv := range moves {
		if err := f.Handoff(ctx, mv.dev, mv.to); err != nil {
			return 0, err
		}
	}
	return len(moves), nil
}

// DeviceCount reports how many devices each healthy member currently hosts.
func (f *Fleet) DeviceCount() map[string]int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make(map[string]int, len(f.members))
	for _, cur := range f.owners {
		out[cur]++
	}
	return out
}

// --- replicated control plane ---

// applyAdmin runs the op on every healthy member and appends it to the
// admin log for future joins/recoveries. The first error aborts.
func (f *Fleet) applyAdmin(op adminOp) error {
	f.mu.Lock()
	f.adminLog = append(f.adminLog, op)
	var svcs []*node.Service
	for _, id := range f.order {
		if f.healthyLocked(id) {
			svcs = append(svcs, f.members[id].svc)
		}
	}
	f.mu.Unlock()
	if len(svcs) == 0 {
		return ErrNoHealthyMembers
	}
	for _, svc := range svcs {
		if err := op(svc); err != nil {
			return err
		}
	}
	return nil
}

// RegisterCor registers a cor on every member (§2.3's safe-environment
// setup, replicated): a single member crash therefore loses no registered
// cor. A non-nil whitelist is pushed first, as the cor's entry in the
// fleet's policy document, so no member holds the cor without it; members
// that miss the push are reported after the registration.
func (f *Fleet) RegisterCor(ctx context.Context, id, plaintext, description string, whitelist ...string) error {
	var pushErr error
	if whitelist != nil {
		var stamp policy.Stamp
		stamp, pushErr = f.push(ctx, func(d *policy.Snapshot) { d.AllowDomains(id, whitelist) })
		if stamp.Version == 0 {
			return pushErr // the fleet did not adopt the document
		}
	}
	err := f.applyAdmin(func(svc *node.Service) error {
		if svc.Cors.Get(id) != nil {
			return nil // already present: durable recovery beat the replay
		}
		_, err := svc.RegisterCor(ctx, id, plaintext, description)
		return err
	})
	if err != nil {
		return err
	}
	return pushErr
}
