package node

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tinman/internal/cor"
	"tinman/internal/tlssim"
)

// ShardPhase is the lifecycle state of a DeviceShard.
//
// The state machine (see DESIGN.md §fleet):
//
//	Attached --BeginDrain--> Draining --DetachShard--> Detached (exported)
//	Attached --DetachShard-----------------------------^
//	(fresh)  <--ImportShard/auto-attach-- Detached export on another node
//
// Attached serves requests; Draining lets in-flight operations finish while
// refusing new ones; Detached shards are gone from the service — their
// state lives only in the ShardExport handed to the caller.
type ShardPhase int

const (
	// ShardAttached is the normal serving state.
	ShardAttached ShardPhase = iota
	// ShardDraining refuses new operations while in-flight ones complete.
	ShardDraining
	// ShardDetached marks a shard that has been exported and removed.
	ShardDetached
)

func (p ShardPhase) String() string {
	switch p {
	case ShardAttached:
		return "attached"
	case ShardDraining:
		return "draining"
	default:
		return "detached"
	}
}

// DeviceShard is the movable unit of per-device trusted-node state: the
// hosted apps (and their VMs/monitors/DSM endpoints), the armed SSL
// injections, the parsed-session-state cache, the at-most-once replay
// window, the derived-cor mint counter and the per-device audit sequence.
// A Service owns one shard per active device; the fleet layer detaches,
// exports, imports and re-attaches shards to move a device between nodes.
//
// The shard's own mutex guards its tables; the per-device audit sequence
// is atomic so audit appends never serialize on the shard lock.
type DeviceShard struct {
	deviceID string

	mu       sync.Mutex
	cond     *sync.Cond // signaled when inflight drops; DetachShard waits on it
	phase    ShardPhase
	inflight int

	apps       map[string]*hostedApp
	injections map[InjectionKey]*pendingInjection
	derivedSeq int
	// derived records the cors minted for this device (ID + parent), in
	// mint order, so an export can carry the device's derived secrets to
	// the importing node.
	derived []derivedCor

	states  stateCache
	replays *ReplayCache

	auditSeq atomic.Uint64
}

type derivedCor struct {
	ID     string `json:"id"`
	Parent string `json:"parent"`
}

func newShard(deviceID string, clock func() time.Time) *DeviceShard {
	sh := &DeviceShard{
		deviceID:   deviceID,
		apps:       make(map[string]*hostedApp),
		injections: make(map[InjectionKey]*pendingInjection),
		replays:    NewReplayCache(clock),
	}
	sh.cond = sync.NewCond(&sh.mu)
	return sh
}

// enter registers an in-flight operation; it fails once the shard is
// draining or detached so a drain can quiesce.
func (sh *DeviceShard) enter() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.phase != ShardAttached {
		return errf(ErrShardDraining, "device %q is %s on this node", sh.deviceID, sh.phase)
	}
	sh.inflight++
	return nil
}

// exit retires an in-flight operation and wakes a waiting drain.
func (sh *DeviceShard) exit() {
	sh.mu.Lock()
	sh.inflight--
	if sh.inflight == 0 {
		sh.cond.Broadcast()
	}
	sh.mu.Unlock()
}

// nextAuditSeq mints the next per-device audit sequence number.
func (sh *DeviceShard) nextAuditSeq() uint64 { return sh.auditSeq.Add(1) }

// ShardInfo is an observable snapshot of one shard (fleet admin, tests).
type ShardInfo struct {
	DeviceID     string
	Phase        ShardPhase
	Apps         int
	Injections   int
	CachedStates int
	ReplayWindow int
	DerivedSeq   int
	AuditSeq     uint64
}

// --- serializable export ---

// ShardExport is a detached shard: everything another trusted node needs
// to resume serving the device. Both ends of a handoff are trusted nodes
// (§2.5), so the export may carry derived-cor plaintext and armed session
// state; it moves only in process between fleet members (fleet.Handoff),
// never over the device protocol.
//
// VM heap state is deliberately not exported: apps are re-installed from
// source on the importing node and the device's DSM re-warms on its next
// offload (the same warm-up reset path PR 4's failed-offload handling
// uses), so an export stays small and deterministic. Speculative warm-up
// epochs (dsm/warmup.go) are likewise *explicitly dropped*, never carried:
// a rebalanced device must not resume against another node's possibly-stale
// warm heap, so the importing node starts with no warm state and any
// warm-path migration that chases the handoff fails ErrWarmStale into the
// cold-path fallback.
type ShardExport struct {
	DeviceID string `json:"device_id"`
	// AuditSeq is the last minted per-device audit sequence number; the
	// importing shard continues from it, keeping the merged per-device
	// audit stream gap-free across the move.
	AuditSeq   uint64 `json:"audit_seq"`
	DerivedSeq int    `json:"derived_seq"`

	Apps        []AppExport       `json:"apps,omitempty"`
	Injections  []InjectionExport `json:"injections,omitempty"`
	DerivedCors []CorExport       `json:"derived_cors,omitempty"`
	Replays     []ReplayRecord    `json:"replays,omitempty"`
}

// AppExport carries one hosted app's identity; the importer re-assembles
// and re-verifies the source exactly like a fresh Install.
type AppExport struct {
	Name                  string   `json:"name"`
	Source                string   `json:"source"`
	NonOffloadableNatives []string `json:"non_offloadable_natives,omitempty"`
}

// InjectionExport carries one armed one-shot payload replacement.
type InjectionExport struct {
	Key     InjectionKey    `json:"key"`
	AppHash string          `json:"app_hash"`
	CorID   string          `json:"cor_id"`
	Domain  string          `json:"domain"`
	State   json.RawMessage `json:"state"`
}

// CorExport carries one derived cor minted for the device. The parent must
// already exist on the importing node (registered cors are replicated
// fleet-wide by the control plane).
type CorExport struct {
	ID        string `json:"id"`
	Parent    string `json:"parent"`
	Plaintext string `json:"plaintext"`
}

// --- Service-level shard lifecycle ---

// lookupShard returns the attached shard, or nil.
func (s *Service) lookupShard(deviceID string) *DeviceShard {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.shards[deviceID]
}

// shard returns the device's shard, attaching a fresh one on first touch.
func (s *Service) shard(deviceID string) *DeviceShard {
	if sh := s.lookupShard(deviceID); sh != nil {
		return sh
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sh := s.shards[deviceID]; sh != nil {
		return sh
	}
	sh := newShard(deviceID, s.clock)
	s.shards[deviceID] = sh
	return sh
}

// shardEnter is the per-device operation prologue: resolve (auto-attaching)
// and register in-flight. Callers must sh.exit() when done. A successful
// enter holds inflight>0, which blocks DetachShard from completing, so the
// shard stays attached for the operation's duration.
func (s *Service) shardEnter(deviceID string) (*DeviceShard, error) {
	if deviceID == "" {
		return nil, errf(ErrBadRequest, "device ID required")
	}
	sh := s.shard(deviceID)
	if err := sh.enter(); err != nil {
		// A draining shard stays in the map until DetachShard removes it;
		// report the state rather than racing the drain.
		return nil, err
	}
	return sh, nil
}

// AttachShard ensures a (possibly fresh) shard exists for the device and
// reports whether it created one. auditSeqFloor, when non-zero, raises the
// per-device audit sequence to at least that value — the fleet uses it to
// keep the stream gap-free when failing over a device whose previous
// owner's shard was lost in a crash. The same floor raises the derived-ID
// counter: every mint is preceded by at least one audited access, so
// derivedSeq ≤ auditSeq always holds, making the audit watermark a
// conservative bound that keeps post-failover mints collision-free.
func (s *Service) AttachShard(deviceID string, auditSeqFloor uint64) (created bool) {
	if deviceID == "" {
		return false
	}
	s.mu.Lock()
	sh := s.shards[deviceID]
	if sh == nil {
		sh = newShard(deviceID, s.clock)
		s.shards[deviceID] = sh
		created = true
	}
	s.mu.Unlock()
	sh.mu.Lock()
	if sh.derivedSeq < int(auditSeqFloor) {
		sh.derivedSeq = int(auditSeqFloor)
	}
	sh.mu.Unlock()
	for {
		cur := sh.auditSeq.Load()
		if cur >= auditSeqFloor || sh.auditSeq.CompareAndSwap(cur, auditSeqFloor) {
			return created
		}
	}
}

// BeginDrain moves the device's shard to Draining: in-flight operations
// finish, new ones are refused with ErrShardDraining. A missing shard is a
// no-op (there is nothing to drain).
func (s *Service) BeginDrain(deviceID string) {
	sh := s.lookupShard(deviceID)
	if sh == nil {
		return
	}
	sh.mu.Lock()
	if sh.phase == ShardAttached {
		sh.phase = ShardDraining
	}
	sh.mu.Unlock()
}

// DetachShard quiesces, serializes and removes the device's shard. The
// returned export carries everything the importing node needs; the local
// shard (including its session-state cache — the pre-shard Service leaked
// those entries forever) is discarded wholesale.
func (s *Service) DetachShard(deviceID string) (*ShardExport, error) {
	sh := s.lookupShard(deviceID)
	if sh == nil {
		return nil, errf(ErrUnknownDevice, "no shard for device %q", deviceID)
	}
	sh.mu.Lock()
	if sh.phase == ShardDetached {
		sh.mu.Unlock()
		return nil, errf(ErrUnknownDevice, "shard for device %q already detached", deviceID)
	}
	sh.phase = ShardDraining
	for sh.inflight > 0 {
		sh.cond.Wait()
	}
	sh.phase = ShardDetached

	exp := &ShardExport{
		DeviceID:   deviceID,
		AuditSeq:   sh.auditSeq.Load(),
		DerivedSeq: sh.derivedSeq,
	}
	names := make([]string, 0, len(sh.apps))
	for name := range sh.apps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		app := sh.apps[name]
		// Warm-up epochs never travel in an export (see ShardExport): drop
		// them with the shard so a torn or completed warm-up can only be
		// consumed on the node that actually received its chunks. The shard
		// is quiesced (inflight == 0), so touching the endpoint is safe.
		app.ep.DropWarmup()
		exp.Apps = append(exp.Apps, AppExport{
			Name:                  name,
			Source:                app.source,
			NonOffloadableNatives: app.natives,
		})
	}
	for key, inj := range sh.injections {
		exp.Injections = append(exp.Injections, InjectionExport{
			Key: key, AppHash: inj.appHash, CorID: inj.corID,
			Domain: inj.domain, State: inj.raw,
		})
	}
	sort.Slice(exp.Injections, func(i, j int) bool {
		return injectionKeyLess(exp.Injections[i].Key, exp.Injections[j].Key)
	})
	for _, d := range sh.derived {
		if rec := s.Cors.Get(d.ID); rec != nil {
			exp.DerivedCors = append(exp.DerivedCors, CorExport{
				ID: d.ID, Parent: d.Parent, Plaintext: rec.Plaintext,
			})
		}
	}
	exp.Replays = sh.replays.Export()
	keys := make([]InjectionKey, 0, len(sh.injections))
	for k := range sh.injections {
		keys = append(keys, k)
	}
	sh.mu.Unlock()

	s.mu.Lock()
	delete(s.shards, deviceID)
	for _, k := range keys {
		delete(s.flows, k)
	}
	s.mu.Unlock()
	return exp, nil
}

// ImportShard attaches a shard from another node's export: apps are
// re-assembled and re-verified like a fresh install, derived cors are
// re-minted under their exported IDs, armed injections re-armed, and the
// replay window, derived-ID counter and per-device audit sequence resume
// where the exporter stopped. Importing over an existing shard for the
// device fails — the fleet must detach first.
//
// The re-minted derived cors are one commit, made before the shard is
// attached. Its audit entries (a refused app) carry no DeviceSeq: on
// failure the device's sequence continues wherever the export goes back to.
// A failed import drops the derived cors it minted from memory.
func (s *Service) ImportShard(ctx context.Context, exp *ShardExport) (err error) {
	if err := ctx.Err(); err != nil {
		return err
	}
	if exp == nil || exp.DeviceID == "" {
		return errf(ErrBadRequest, "shard import missing device ID")
	}
	var minted []*cor.Record
	defer func() {
		if err != nil {
			for _, rec := range minted {
				// Cannot fail: the import minted rec as a derived cor, and
				// nothing else drops derived cors.
				_ = s.Cors.DropDerived(rec.ID)
			}
		}
	}()
	var op opRecords
	defer s.end(&op, &err)
	sh := newShard(exp.DeviceID, s.clock)
	sh.auditSeq.Store(exp.AuditSeq)
	sh.derivedSeq = exp.DerivedSeq

	// Every step that can fail runs before the first derived cor is
	// minted: a refused import must leave none of the device's secrets on
	// a node that does not own it.
	if s.lookupShard(exp.DeviceID) != nil {
		return errf(ErrBadRequest, "device %q already has a shard on this node", exp.DeviceID)
	}
	for _, d := range exp.DerivedCors {
		if s.Cors.Get(d.ID) == nil && s.Cors.Get(d.Parent) == nil {
			return errf(ErrBadRequest, "importing derived cor %s: unknown parent %s", d.ID, d.Parent)
		}
	}
	for _, a := range exp.Apps {
		app, err := s.buildApp(&op, InstallRequest{
			DeviceID:              exp.DeviceID,
			Name:                  a.Name,
			Source:                a.Source,
			NonOffloadableNatives: a.NonOffloadableNatives,
		})
		if err != nil {
			return fmt.Errorf("node: importing app %s for %s: %w", a.Name, exp.DeviceID, err)
		}
		sh.apps[a.Name] = app
	}
	for _, inj := range exp.Injections {
		st, err := tlssim.UnmarshalState(inj.State)
		if err != nil {
			return errf(ErrBadRequest, "importing injection for %s: %v", exp.DeviceID, err)
		}
		sh.injections[inj.Key] = &pendingInjection{
			appHash: inj.AppHash, deviceID: exp.DeviceID,
			corID: inj.CorID, domain: inj.Domain, state: st, raw: inj.State,
		}
	}
	for _, d := range exp.DerivedCors {
		sh.derived = append(sh.derived, derivedCor{ID: d.ID, Parent: d.Parent})
		if s.Cors.Get(d.ID) != nil {
			continue // already present (e.g. round-tripped back)
		}
		rec, err := s.Cors.Derive(d.Parent, d.ID, d.Plaintext)
		if err != nil {
			return errf(ErrBadRequest, "importing derived cor %s: %v", d.ID, err)
		}
		minted = append(minted, rec)
	}
	// The vault records join the commit only once every derive succeeded.
	for _, rec := range minted {
		op.vault(rec)
	}
	sh.replays.Import(exp.Replays)

	tk := s.enqueue(&op)
	op = opRecords{} // enqueued: the deferred end has nothing left to commit
	if err := commit(tk, nil); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shards[exp.DeviceID] != nil {
		return errf(ErrBadRequest, "device %q already has a shard on this node", exp.DeviceID)
	}
	s.shards[exp.DeviceID] = sh
	for _, inj := range exp.Injections {
		s.flows[inj.Key] = exp.DeviceID
	}
	return nil
}

// Devices lists the devices with attached (or draining) shards, sorted.
func (s *Service) Devices() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.shards))
	for id := range s.shards {
		out = append(out, id)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Shard reports a snapshot of the device's shard; ok is false when the
// device has none.
func (s *Service) Shard(deviceID string) (ShardInfo, bool) {
	sh := s.lookupShard(deviceID)
	if sh == nil {
		return ShardInfo{}, false
	}
	sh.mu.Lock()
	info := ShardInfo{
		DeviceID:     deviceID,
		Phase:        sh.phase,
		Apps:         len(sh.apps),
		Injections:   len(sh.injections),
		CachedStates: sh.states.len(),
		ReplayWindow: sh.replays.Len(),
		DerivedSeq:   sh.derivedSeq,
		AuditSeq:     sh.auditSeq.Load(),
	}
	sh.mu.Unlock()
	return info, true
}

// ReplayDo routes an at-most-once execution through the device's replay
// window (attaching the shard on first touch). replayed reports a dedup
// hit. The recorded value may come back as ReplayedRaw when the window
// crossed a node handoff — see ReplayCache.Import. An empty deviceID has
// no shard and so no window: fn runs unrecorded, and every device-keyed
// Service call it makes refuses the empty ID itself.
func (s *Service) ReplayDo(deviceID, reqID string, fn func() any) (val any, replayed bool) {
	if deviceID == "" {
		return fn(), false
	}
	return s.shard(deviceID).replays.Do(reqID, fn)
}

// injectionKeyLess orders injection keys for deterministic exports.
func injectionKeyLess(a, b InjectionKey) bool {
	if a.ClientAddr != b.ClientAddr {
		return a.ClientAddr < b.ClientAddr
	}
	if a.ClientPort != b.ClientPort {
		return a.ClientPort < b.ClientPort
	}
	if a.ServerAddr != b.ServerAddr {
		return a.ServerAddr < b.ServerAddr
	}
	return a.ServerPort < b.ServerPort
}
