package node

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"tinman/internal/audit"
	"tinman/internal/dsm"
	"tinman/internal/monitor"
	"tinman/internal/obs"
	"tinman/internal/policy"
	"tinman/internal/taint"
	"tinman/internal/tlssim"
	"tinman/internal/vm"
	"tinman/internal/vm/asm"
)

// AppKey identifies one installed app: the same app name installed by two
// devices is two independent node-side VMs.
type AppKey struct {
	DeviceID string
	Name     string
}

// hostedApp is the trusted node's half of an installed application.
type hostedApp struct {
	key  AppKey
	prog *vm.Program
	hash string
	// source and natives retain the install inputs so a shard export can
	// re-install the app bit-identically on another node.
	source  string
	natives []string
	// runMu serializes offloaded execution on the app's VM: the VM and its
	// DSM endpoint are single-threaded state, while the Service is not.
	runMu   sync.Mutex
	machine *vm.VM
	ep      *dsm.Endpoint
	locks   *dsm.LockTable
	// mon is the per-app dynamic-analysis monitor (§3.4/§8 extension).
	mon *monitor.Monitor
}

// DeviceNatives lists the native methods the TinMan device platform gives
// every app VM. A node installing an app for a device registers them as
// non-offloadable stubs, so touching one bounces the thread home (§3.1
// case 2).
var DeviceNatives = []string{"https_request", "ui_notify"}

// InstallRequest is the node half of app installation (the warm-up dex
// transfer, §6.2).
type InstallRequest struct {
	DeviceID string
	Name     string
	Source   string
	// NonOffloadableNatives lists device-only native methods; the node
	// installs failing stubs plus a gate so touching one forces a migration
	// back to the device (§3.1 case 2).
	NonOffloadableNatives []string
}

// InstallResult reports the verified program's identity and size (the
// transport models transfer/assembly cost from CodeSize).
type InstallResult struct {
	Hash     string
	CodeSize int
}

// buildApp assembles, verifies and malware-checks the program, then
// provisions the per-app VM, monitor and DSM endpoint. It is the shared
// core of Install and ImportShard; it touches no shard state.
func (s *Service) buildApp(req InstallRequest) (*hostedApp, error) {
	prog, err := asm.Assemble(req.Name, req.Source)
	if err != nil {
		return nil, errf(ErrBadRequest, "assembling %s: %v", req.Name, err)
	}
	// Defense in depth: the node re-verifies the bytecode it is about to
	// host, independent of the device's assembler.
	if err := prog.Verify(); err != nil {
		return nil, errf(ErrBadRequest, "%s failed verification: %v", req.Name, err)
	}
	hash := prog.Hash()
	if s.Malware.Contains(hash) {
		family := s.Malware.Family(hash)
		if aerr := s.auditAppend(hash, "", req.DeviceID, "", audit.OutcomeDenied, "malware: "+family); aerr != nil {
			return nil, aerr
		}
		return nil, denied(&policy.Denial{Reason: policy.ReasonMalware, Detail: family})
	}

	machine := vm.New(vm.Config{
		Program:       prog,
		Heap:          vm.NewHeap(2, 2), // even IDs: the node's ID space
		Policy:        taint.Full,
		CorIdleWindow: s.corIdleWindow,
	})
	registerNativeStubs(machine, req.NonOffloadableNatives)
	key := AppKey{DeviceID: req.DeviceID, Name: req.Name}
	app := &hostedApp{
		key: key, prog: prog, hash: hash, machine: machine,
		source:  req.Source,
		natives: append([]string(nil), req.NonOffloadableNatives...),
	}
	app.mon = monitor.New(monitor.Config{
		OnFinding: func(f monitor.Finding) {
			// Findings fire mid-execution with no caller to fail; a durable
			// store failure is sticky and surfaces on the next acknowledged
			// operation instead.
			_ = s.auditAppend(hash, "", req.DeviceID, "", audit.OutcomeDenied, "monitor: "+f.String())
		},
	})
	app.mon.Attach(machine)
	app.ep = dsm.NewEndpoint(dsm.NodeSide, machine, &corResolver{svc: s, deviceID: req.DeviceID})
	app.ep.Restricted = s.Cors.RestrictedMask()
	return app, nil
}

// denyRestricted maps a dsm.ErrRestricted violation (server-only tainted
// state in a DSM payload) to the corresponding policy denial, with an audit
// entry; any other error surfaces as a plain bad request.
func (s *Service) denyRestricted(err error, appHash, deviceID string) error {
	if !errors.Is(err, dsm.ErrRestricted) {
		return badRequest(err)
	}
	if aerr := s.auditAppend(appHash, "", deviceID, "", audit.OutcomeDenied, err.Error()); aerr != nil {
		return aerr
	}
	return denied(&policy.Denial{Reason: policy.ReasonServerOnlyClass, Detail: err.Error()})
}

// Install assembles and verifies the app on the node and runs the malware
// check, then hosts it in the device's shard.
func (s *Service) Install(ctx context.Context, req InstallRequest) (*InstallResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sh, err := s.shardEnter(req.DeviceID)
	if err != nil {
		return nil, err
	}
	defer sh.exit()
	app, err := s.buildApp(req)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	sh.apps[req.Name] = app
	sh.mu.Unlock()
	return &InstallResult{Hash: app.hash, CodeSize: app.prog.CodeSize()}, nil
}

// app looks up the hosted app for (deviceID, name).
func (s *Service) app(deviceID, name string) (*hostedApp, error) {
	sh := s.lookupShard(deviceID)
	if sh == nil {
		return nil, errf(ErrUnknownApp, "app %q not installed", name)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if a := sh.apps[name]; a != nil {
		return a, nil
	}
	return nil, errf(ErrUnknownApp, "app %q not installed", name)
}

// SetAppLocks shares the endpoint-pair lock table with the node side (the
// in-process World wires both halves to one table).
func (s *Service) SetAppLocks(deviceID, name string, lt *dsm.LockTable) {
	app, err := s.app(deviceID, name)
	if err != nil {
		return
	}
	app.locks = lt
	app.machine.Hooks.OnMonitorEnter = func(o *vm.Object) bool {
		return !lt.Acquire(o.ID, dsm.NodeSide)
	}
	app.machine.Hooks.OnMonitorExit = func(o *vm.Object) { lt.Release(o.ID) }
}

// Stats reports the node-side counters after an offload episode (Table 3).
// Transports ship it with the reply migration.
type Stats struct {
	Instrs     uint64 `json:"instrs"`
	Calls      uint64 `json:"calls"`
	Syncs      int    `json:"syncs"`
	InitBytes  int    `json:"init_bytes"`
	DirtyBytes int    `json:"dirty_bytes"`
	// Executed counts instructions run on the node during this episode
	// (the simulation's compute-cost input).
	Executed uint64 `json:"executed,omitempty"`
	// ExecStartNs is the service clock (Unix ns) when the episode's thread
	// began executing; 0 for a pure state sync. A device subtracts its
	// trigger time to get the trigger-to-first-node-instruction latency
	// that warm-up shortens.
	ExecStartNs int64 `json:"exec_start_ns,omitempty"`
}

// OffloadResult is one completed offload round: the encoded reply migration
// plus accounting.
type OffloadResult struct {
	Bytes []byte
	Stats Stats
}

// WarmupChunk applies one background warm-up chunk to the app's node-side
// heap (the speculative pre-migration pipeline, dsm/warmup.go). Chunks carry
// the same masked wire form as migrations — cor IDs only, materialized from
// the vault on this side — so pre-applying them moves no plaintext off the
// node; the offload-time policy checks still gate any *use* of the warmed
// state. Any ordering or apply error drops the buffered epoch and surfaces
// to the sender, which falls back to the cold path.
func (s *Service) WarmupChunk(ctx context.Context, deviceID, appName string, chunkBytes []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sh := s.lookupShard(deviceID)
	if sh == nil {
		return errf(ErrUnknownApp, "app %q not installed", appName)
	}
	if err := sh.enter(); err != nil {
		return err
	}
	defer sh.exit()
	app, err := s.app(deviceID, appName)
	if err != nil {
		return err
	}
	c, err := dsm.DecodeWarmupChunk(chunkBytes)
	if err != nil {
		return badRequest(err)
	}
	var span *obs.Span
	if parent := obs.SpanFromContext(ctx); parent != nil {
		span = parent.Child(obs.PhaseDSMWarmup,
			obs.App(app.hash), obs.Count(int64(len(c.Objects))), obs.Bytes(len(chunkBytes)))
	}
	app.runMu.Lock()
	defer app.runMu.Unlock()
	// Refresh the server-only mask: a class change since install must take
	// effect on the very next chunk.
	app.ep.Restricted = s.Cors.RestrictedMask()
	if err := app.ep.ApplyWarmupChunk(c); err != nil {
		span.Add(obs.Outcome(false))
		span.End()
		return s.denyRestricted(err, app.hash, deviceID)
	}
	s.warm.chunks.Add(1)
	s.met.warmChunks.Inc()
	span.Add(obs.Outcome(true))
	span.End()
	return nil
}

// Offload is the offload entry point: policy-check every cor reachable from
// the trigger tag (§3.4), apply the migration, run the thread under full
// tainting with the behavioral monitor watching, and capture the reply.
func (s *Service) Offload(ctx context.Context, deviceID, appName string, migBytes []byte) (*OffloadResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	arrived := s.clock()
	sh := s.lookupShard(deviceID)
	if sh == nil {
		return nil, errf(ErrUnknownApp, "app %q not installed", appName)
	}
	if err := sh.enter(); err != nil {
		return nil, err
	}
	defer sh.exit()
	app, err := s.app(deviceID, appName)
	if err != nil {
		return nil, err
	}
	mig, err := dsm.DecodeMigration(migBytes)
	if err != nil {
		return nil, badRequest(err)
	}

	// §3.4: every cor access is checked against the app binding and logged.
	trigger := taint.Tag(mig.TriggerTag)
	parent := obs.SpanFromContext(ctx)
	for _, rec := range s.Cors.ByTag(trigger) {
		var span *obs.Span
		if parent != nil {
			span = parent.Child(obs.PhasePolicyCheck,
				obs.Cor(rec.ID), obs.App(app.hash))
		}
		s.met.policyChecks.Inc()
		acc := policy.Access{CorID: rec.ID, AppHash: app.hash, DeviceID: deviceID, Class: rec.Class}
		stamp, perr := s.Policy.CheckStamped(acc)
		if perr != nil {
			s.met.policyDenials.Inc()
			if aerr := s.auditAppendStamped(stamp, app.hash, rec.ID, deviceID, "", audit.OutcomeDenied, perr.Error()); aerr != nil {
				span.End()
				return nil, aerr
			}
			if d, ok := policy.IsDenial(perr); ok {
				span.Add(obs.Outcome(false), obs.Reason(d.Reason.String()))
				span.End()
				return nil, denied(d)
			}
			span.Add(obs.Outcome(false), obs.Err(obs.ErrBadRequest))
			span.End()
			return nil, badRequest(perr)
		}
		if aerr := s.auditAppendStamped(stamp, app.hash, rec.ID, deviceID, "", audit.OutcomeAllowed, "offloaded access"); aerr != nil {
			span.End()
			return nil, aerr
		}
		span.Add(obs.Outcome(true))
		span.End()
	}

	app.runMu.Lock()
	defer app.runMu.Unlock()
	// Refresh the server-only mask before admitting or capturing state.
	app.ep.Restricted = s.Cors.RestrictedMask()

	// Warm-path admission: the migration's delta only makes sense against a
	// ready warm-up with exactly the declared epoch; anything else (torn
	// warm-up, reconnect, handoff to a node that never saw the chunks) is a
	// warm miss and the device must resend the full snapshot. A cold full
	// snapshot conversely invalidates any leftover warm state.
	if mig.WarmEpoch != 0 {
		if !app.ep.ConsumeWarmup(mig.WarmEpoch) {
			s.warm.misses.Add(1)
			s.met.warmMisses.Inc()
			return nil, errf(ErrWarmStale, "warm epoch %d not ready for %s/%s", mig.WarmEpoch, deviceID, appName)
		}
		s.warm.hits.Add(1)
		s.met.warmHits.Inc()
	} else if mig.Initial {
		app.ep.DropWarmup()
	}

	th, err := app.ep.ApplyMigration(mig)
	if err != nil {
		return nil, s.denyRestricted(err, app.hash, deviceID)
	}
	var (
		stop      = vm.StopDone
		executed  uint64
		execStart int64
	)
	if th != nil {
		app.machine.ResetIdle()
		app.mon.BeginEpisode()
		// Resume latency: migration arrival to first node instruction.
		now := s.clock()
		execStart = now.UnixNano()
		s.warm.resumeNs.Add(int64(now.Sub(arrived)))
		s.warm.resumes.Add(1)
		before := app.machine.Instrs
		st, runErr := th.Run()
		executed = app.machine.Instrs - before
		if runErr != nil {
			return nil, errf(ErrExecution, "offloaded thread: %v", runErr)
		}
		if app.mon.CriticalRaised() {
			findings := app.mon.Findings()
			return nil, errf(ErrExecution, "dynamic analysis aborted the episode: %v", findings[len(findings)-1])
		}
		stop = st
	}
	// th == nil is a pure state sync: ack with an empty node sync.
	reply, err := app.ep.CaptureMigration(th, stop)
	if err != nil {
		return nil, s.denyRestricted(err, app.hash, deviceID)
	}
	return &OffloadResult{
		Bytes: reply.Encode(),
		Stats: Stats{
			Instrs:      app.machine.Instrs,
			Calls:       app.machine.Calls,
			Syncs:       app.ep.Stats.Syncs,
			InitBytes:   app.ep.Stats.InitBytes,
			DirtyBytes:  app.ep.Stats.DirtyBytes,
			Executed:    executed,
			ExecStartNs: execStart,
		},
	}, nil
}

// --- SSL session injection and TCP payload replacement (§3.2–§3.3) ---

// InjectionKey identifies the TCP flow an injection is armed for.
type InjectionKey struct {
	ClientAddr string `json:"client_addr"`
	ClientPort uint16 `json:"client_port"`
	ServerAddr string `json:"server_addr"`
	ServerPort uint16 `json:"server_port"`
}

// InjectRequest arms payload replacement for an imminent marked record
// (fig 8 steps 1–2).
type InjectRequest struct {
	DeviceID string
	App      string
	CorID    string
	Domain   string
	Key      InjectionKey
	State    json.RawMessage
}

type pendingInjection struct {
	appHash  string
	deviceID string
	corID    string
	domain   string
	state    *tlssim.State
	// raw keeps the marshaled state so a shard export can carry the armed
	// injection to another node without re-marshaling.
	raw json.RawMessage
}

// ArmInjection enforces the send-time policy (§3.4 second binding) and
// records the session state for the flow's one-shot payload replacement.
func (s *Service) ArmInjection(ctx context.Context, req InjectRequest) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	app, err := s.app(req.DeviceID, req.App)
	if err != nil {
		return err
	}
	sh, err := s.shardEnter(req.DeviceID)
	if err != nil {
		return err
	}
	defer sh.exit()
	rec := s.Cors.Get(req.CorID)
	if rec == nil {
		return errf(ErrUnknownCor, "unknown cor %q", req.CorID)
	}
	checkID, stamp, err := s.checkSend(ctx, rec, app.hash, req.DeviceID, req.Domain, req.Key.ServerAddr)
	if err != nil {
		return err
	}
	st, err := tlssim.UnmarshalState(req.State)
	if err != nil {
		return badRequest(err)
	}
	// The modified client library refuses TLS 1.0 before ever reaching this
	// point; the node double-checks (defense in depth, §3.2).
	if st.Version <= tlssim.TLS10 {
		e := errf(ErrWeakTLS, "refusing session injection for %v (implicit-IV leak, fig 7)", st.Version)
		if aerr := s.auditAppendStamped(stamp, app.hash, checkID, req.DeviceID, req.Domain, audit.OutcomeDenied, e.Error()); aerr != nil {
			return aerr
		}
		return e
	}
	sh.mu.Lock()
	sh.injections[req.Key] = &pendingInjection{
		appHash: app.hash, deviceID: req.DeviceID,
		corID: req.CorID, domain: req.Domain, state: st,
		raw: append(json.RawMessage(nil), req.State...),
	}
	sh.mu.Unlock()
	s.mu.Lock()
	s.flows[req.Key] = req.DeviceID
	s.mu.Unlock()
	return s.auditAppendStamped(stamp, app.hash, checkID, req.DeviceID, req.Domain, audit.OutcomeAllowed, "ssl session injected")
}

// ReplacePayload is the payload-replacement hook (fig 8 step 4): swap the
// placeholder-bearing marked record for the cor-bearing one. The armed
// injection is one-shot. Replacement is keyed by TCP flow alone; the flow
// index routes it to the owning device's shard.
func (s *Service) ReplacePayload(ctx context.Context, key InjectionKey, recordLen int) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	deviceID, ok := s.flows[key]
	delete(s.flows, key)
	s.mu.Unlock()
	var inj *pendingInjection
	if ok {
		if sh := s.lookupShard(deviceID); sh != nil {
			sh.mu.Lock()
			inj = sh.injections[key]
			delete(sh.injections, key)
			sh.mu.Unlock()
		}
	}
	if inj == nil {
		return nil, errf(ErrNoInjection, "no armed injection for %s:%d -> %s:%d",
			key.ClientAddr, key.ClientPort, key.ServerAddr, key.ServerPort)
	}
	rec := s.Cors.Get(inj.corID)
	if rec == nil {
		return nil, errf(ErrUnknownCor, "cor %q vanished", inj.corID)
	}
	// vault_open brackets the only stretch where the cor plaintext is live
	// outside the store; the span carries only the cor ID and output size.
	var vspan *obs.Span
	if parent := obs.SpanFromContext(ctx); parent != nil {
		vspan = parent.Child(obs.PhaseVaultOpen, obs.Cor(inj.corID))
	}
	s.met.vaultOpens.Inc()
	sess, err := tlssim.Resume(inj.state, nil)
	if err != nil {
		vspan.Add(obs.Err(obs.ErrBadRequest))
		vspan.End()
		return nil, badRequest(err)
	}
	out, err := sess.Seal(tlssim.TypeApplicationData, []byte(rec.Plaintext))
	if err != nil {
		vspan.Add(obs.Err(obs.ErrBadRequest))
		vspan.End()
		return nil, badRequest(err)
	}
	vspan.Add(obs.Bytes(len(out)))
	vspan.End()
	if recordLen > 0 && len(out) != recordLen {
		return nil, errf(ErrRecordLength, "resealed record %dB != placeholder record %dB (would desynchronize TCP)", len(out), recordLen)
	}
	if aerr := s.auditAppend(inj.appHash, inj.corID, inj.deviceID, inj.domain, audit.OutcomeAllowed, "payload replaced"); aerr != nil {
		return nil, aerr
	}
	return out, nil
}

// corResolver adapts the cor store to the DSM resolver interface for one
// device's hosted apps.
type corResolver struct {
	svc      *Service
	deviceID string
}

// Fill returns plaintext for the cor.
func (r *corResolver) Fill(id string, length int) (string, taint.Tag, bool) {
	rec := r.svc.Cors.Get(id)
	if rec == nil {
		return "", taint.None, false
	}
	return rec.Plaintext, rec.Tag(), true
}

// MaskID mints a derived cor for a freshly tainted string (the concatenated
// request of fig 11 is "a new cor").
func (r *corResolver) MaskID(o *vm.Object) string {
	parents := r.svc.Cors.ByTag(o.Tag)
	if len(parents) == 0 {
		return ""
	}
	id := r.svc.mintDerivedID(r.deviceID, parents[0].ID)
	if _, err := r.svc.Cors.Derive(parents[0].ID, id, o.Str); err != nil {
		return ""
	}
	// The resolver interface cannot surface an error; an unmasked string
	// ("" here) keeps the derived cor out of circulation when it could not
	// be made durable.
	if err := r.svc.durVaultRec(id); err != nil {
		return ""
	}
	return id
}

// mintDerivedID allocates the device's next derived-cor ID under its shard
// lock and records the lineage for shard export. The ID carries the device
// so two devices' mints can never collide fleet-wide.
func (s *Service) mintDerivedID(deviceID, parentID string) string {
	sh := s.shard(deviceID)
	sh.mu.Lock()
	sh.derivedSeq++
	n := sh.derivedSeq
	id := fmt.Sprintf("derived-%s-%s-%d", parentID, deviceID, n)
	sh.derived = append(sh.derived, derivedCor{ID: id, Parent: parentID})
	sh.mu.Unlock()
	return id
}

// registerNativeStubs installs non-offloadable stubs: the gate stops the
// thread before any of these would execute on the node, forcing a migration
// back to the device (§3.1 case 2).
func registerNativeStubs(machine *vm.VM, names []string) {
	for _, name := range names {
		name := name
		machine.RegisterNative(&vm.NativeDef{
			Name:        name,
			Offloadable: false,
			Fn: func(t *vm.Thread, args []vm.Value) (vm.Value, error) {
				return vm.Value{}, fmt.Errorf("node: native %s must not execute on the trusted node", name)
			},
		})
	}
	machine.Hooks.NativeGate = func(def *vm.NativeDef) bool { return !def.Offloadable }
}
