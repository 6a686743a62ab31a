package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"tinman/internal/cor"
	"tinman/internal/dsm"
	"tinman/internal/node"
	"tinman/internal/nodeproto"
	"tinman/internal/obs"
	"tinman/internal/taint"
	"tinman/internal/tlssim"
	"tinman/internal/vm"
	"tinman/internal/vm/asm"
)

// Report accumulates one app's offloading metrics — the raw material for
// Table 3 and the latency breakdowns of Figs 14/15.
type Report struct {
	// Migrations counts device<->node thread round trips.
	Migrations int
	// Syncs counts DSM synchronizations in both directions (Table 3
	// "Sync. Times").
	Syncs int
	// InitBytes and DirtyBytes are the initial and subsequent DSM sync
	// volumes (Table 3 "Off. Init"/"Off. Dirty").
	InitBytes  int
	DirtyBytes int
	// DeviceInstrs/NodeInstrs and DeviceCalls/NodeCalls split execution
	// between endpoints (Table 3 "Off. Code" = NodeCalls fraction).
	DeviceInstrs uint64
	NodeInstrs   uint64
	DeviceCalls  uint64
	NodeCalls    uint64
	// DSMTime is virtual time spent in DSM migration round trips; SSLTime
	// is virtual time in SSL session injection + TCP payload replacement
	// signaling; Total is end-to-end for the last Run.
	DSMTime time.Duration
	SSLTime time.Duration
	Total   time.Duration
	// Speculative warm-up pipeline accounting (BENCH_offload.json): the
	// background chunks/bytes shipped off the critical path, how many
	// trigger-time migrations rode the warm delta path versus fell back
	// cold, and the state the last trigger actually had to ship (on a warm
	// hit, the dirty delta alone).
	WarmupChunks     int
	WarmupBytes      int
	WarmHits         int
	WarmMisses       int
	TriggerSyncBytes int
	// FirstTriggerSyncBytes pins the first offload's wire size — the full
	// snapshot on the cold path, the dirty delta on a warm hit.
	FirstTriggerSyncBytes int
	// TriggerToExec is virtual time from the last offload trigger to the
	// node's first resumed instruction; FirstTriggerToExec pins the first
	// offload's, which is the latency speculation targets.
	TriggerToExec      time.Duration
	FirstTriggerToExec time.Duration
}

// OffloadedFraction returns NodeCalls / (NodeCalls + DeviceCalls).
func (r *Report) OffloadedFraction() float64 {
	total := r.NodeCalls + r.DeviceCalls
	if total == 0 {
		return 0
	}
	return float64(r.NodeCalls) / float64(total)
}

// App is one installed application: a device VM half plus (when TinMan is
// enabled) a trusted-node VM half behind the control plane.
type App struct {
	Name string
	dev  *Device

	prog    *vm.Program
	hash    string
	machine *vm.VM
	ep      *dsm.Endpoint
	locks   *dsm.LockTable

	// Speculative warm-up driver state: the cached static offload plan, and
	// the index of the final chunk once every chunk has been emitted (-1
	// while the stream is still running).
	plan           *vm.OffloadPlan
	warmStarted    bool
	warmFinalIndex int

	lastTrigger taint.Tag
	Report      Report
}

// Hash returns the app's dex hash.
func (a *App) Hash() string { return a.hash }

// Program returns the device-side program.
func (a *App) Program() *vm.Program { return a.prog }

// VM returns the device-side VM (examples use it to inspect the heap).
func (a *App) VM() *vm.VM { return a.machine }

// InstallOpts tunes one app's installation.
type InstallOpts struct {
	// FrameworkHeapKB sizes the preallocated framework state, which governs
	// the initial DSM sync volume.
	FrameworkHeapKB int
	// Policy overrides the device-wide taint policy for this app — the
	// selective-tainting optimization of §3.5 ("enables tainting only for
	// certain security critical apps"). nil inherits the device policy.
	// An app running Off cannot use cors (its placeholder accesses would go
	// unnoticed), so only non-critical apps should opt out.
	Policy *taint.Policy
}

// InstallApp assembles the app on the device and, when TinMan is enabled,
// ships its source to the trusted node (the warm-up dex transfer of §6.2).
// frameworkHeapKB sizes the preallocated framework state, which governs the
// initial DSM sync volume.
func (d *Device) InstallApp(name, source string, frameworkHeapKB int) (*App, error) {
	return d.InstallAppOpts(name, source, InstallOpts{FrameworkHeapKB: frameworkHeapKB})
}

// InstallAppOpts is InstallApp with per-app options.
func (d *Device) InstallAppOpts(name, source string, opts InstallOpts) (*App, error) {
	if _, dup := d.apps[name]; dup {
		return nil, fmt.Errorf("core: app %q already installed", name)
	}
	prog, err := asm.Assemble(name, source)
	if err != nil {
		return nil, fmt.Errorf("core: installing %s: %v", name, err)
	}
	pol := d.policy
	if opts.Policy != nil {
		pol = *opts.Policy
	}
	frameworkHeapKB := opts.FrameworkHeapKB
	machine := vm.New(vm.Config{Program: prog, Heap: vm.NewHeap(1, 2), Policy: pol})
	app := &App{Name: name, dev: d, prog: prog, hash: prog.Hash(), machine: machine}
	app.ep = dsm.NewEndpoint(dsm.DeviceSide, machine, &deviceResolver{dev: d})
	app.ep.Restricted = d.restrictedMask()
	app.locks = dsm.NewLockTable()
	registerDeviceNatives(app)

	machine.Hooks.OnTaintedAccess = func(tag taint.Tag, ev taint.Event) bool {
		app.lastTrigger = tag
		if tr := d.w.Obs; tr.Enabled() {
			tr.Event(obs.PhaseTaintTrigger, obs.TagBits(uint64(tag)))
		}
		return d.w.enabled
	}
	machine.Hooks.OnMonitorEnter = func(o *vm.Object) bool {
		return !app.locks.Acquire(o.ID, dsm.DeviceSide)
	}
	machine.Hooks.OnMonitorExit = func(o *vm.Object) { app.locks.Release(o.ID) }

	// Framework heap: the app/framework state that the first offload must
	// ship wholesale (Table 3 "Off. Init").
	const chunk = 256
	for i := 0; i < frameworkHeapKB*1024/chunk; i++ {
		machine.NewString(strings.Repeat("f", chunk-24))
	}

	if d.w.enabled {
		resp, err := d.request(&nodeproto.Request{Op: nodeproto.OpInstall,
			DeviceID: d.ID, App: name, Body: []byte(source)})
		if err != nil {
			return nil, err
		}
		if err := resp.Err(); err != nil {
			return nil, fmt.Errorf("core: node rejected %s: %w", name, err)
		}
		if resp.AppHash != app.hash {
			return nil, fmt.Errorf("core: dex hash mismatch installing %s", name)
		}
		d.w.Node.Svc.SetAppLocks(d.ID, name, app.locks)
	}
	d.apps[name] = app
	return app, nil
}

// CorArg materializes a cor argument for an app invocation — the user
// picking an entry from the selection widget (§4.1). With TinMan enabled it
// returns a tainted placeholder; with TinMan disabled (the baseline) it
// returns the plaintext from Config.BaselinePlaintexts, which is what an
// unprotected phone would hold.
func (d *Device) CorArg(a *App, corID string) (vm.Value, error) {
	if !d.w.enabled {
		pt, ok := d.baseline[corID]
		if !ok {
			return vm.Value{}, fmt.Errorf("core: baseline plaintext for %q not provided", corID)
		}
		return vm.RefVal(a.machine.NewString(pt)), nil
	}
	view, ok := d.catalog[corID]
	if !ok {
		return vm.Value{}, fmt.Errorf("core: cor %q not in catalog", corID)
	}
	obj := a.machine.NewTaintedString(view.Placeholder, taint.Bit(view.Bit))
	obj.CorID = view.ID
	return vm.RefVal(obj), nil
}

// StringArg materializes an ordinary (untainted) string argument.
func (d *Device) StringArg(a *App, s string) vm.Value {
	return vm.RefVal(a.machine.NewString(s))
}

// Run executes Class.method with the given arguments, driving the on-demand
// offloading loop until the thread completes.
func (a *App) Run(class, method string, args ...vm.Value) (vm.Value, error) {
	m := a.prog.Method(class, method)
	if m == nil {
		return vm.Value{}, fmt.Errorf("core: %s has no method %s.%s", a.Name, class, method)
	}
	th, err := a.machine.NewThread(m, args...)
	if err != nil {
		return vm.Value{}, err
	}
	start := a.dev.w.Net.Now()
	defer func() { a.Report.Total = a.dev.w.Net.Now() - start }()
	a.startWarmup()

	for {
		// One device-VM execution burst: span start to end brackets the
		// modeled compute advance, so the burst's virtual duration is real.
		var burst *obs.Span
		if tr := a.dev.w.Obs; tr.Enabled() {
			burst = tr.StartSpan(obs.PhaseDeviceExec)
		}
		before := a.machine.Instrs
		stop, err := th.Run()
		a.dev.w.advanceCompute(true, a.machine.Instrs-before)
		if burst != nil {
			burst.Add(obs.Count(int64(a.machine.Instrs - before)))
			burst.End()
		}
		a.Report.DeviceInstrs = a.machine.Instrs
		a.Report.DeviceCalls = a.machine.Calls
		if err != nil {
			return vm.Value{}, err
		}
		switch stop {
		case vm.StopDone:
			return th.Result, nil
		case vm.StopMigrateTaint, vm.StopMigrateLock:
			next, result, done, err := a.offload(th, stop)
			if err != nil {
				return vm.Value{}, err
			}
			if done {
				return result, nil
			}
			th = next
		case vm.StopLimit:
			return vm.Value{}, fmt.Errorf("core: %s.%s exceeded the instruction budget", class, method)
		default:
			return vm.Value{}, fmt.Errorf("core: unexpected device stop %v", stop)
		}
	}
}

// warmupChunkObjs bounds the objects per background warm-up chunk; small
// chunks keep each send's CPU slice short so speculation never starves
// foreground execution.
const warmupChunkObjs = 64

// startWarmup kicks off the speculative pre-migration pipeline: if the
// static taint analysis says this program can reach an offload boundary
// (vm.OffloadPlan) and the initial DSM sync has not happened yet, the app
// begins streaming its heap to the node in background chunks while the
// device keeps executing. Every chunk send is a scheduled network event,
// so shipping overlaps the compute advances of Run's bursts instead of
// preceding them.
func (a *App) startWarmup() {
	w := a.dev.w
	if !w.enabled || w.noWarmup || a.warmStarted || a.dev.ctrl == nil {
		return
	}
	if a.plan == nil {
		a.plan = a.prog.OffloadPlan()
	}
	if !a.plan.Speculative() {
		return
	}
	epoch := a.ep.BeginWarmup()
	if epoch == 0 {
		return // the initial sync already shipped; nothing to warm
	}
	a.warmStarted = true
	a.warmFinalIndex = -1
	if tr := w.Obs; tr.Enabled() {
		tr.Event(obs.PhaseDSMWarmup, obs.Count(int64(len(a.plan.Entries))))
	}
	w.Net.Schedule(0, func() { a.sendWarmupChunk(epoch) })
}

// sendWarmupChunk emits one background chunk and schedules the next. It
// runs inside network event context, so it only notes CPU cost and pacing
// delays — it never re-enters the event loop. Any transport trouble
// (reconnect, open breaker, write failure) abandons the attempt: losing
// the speculation only costs the cold path.
func (a *App) sendWarmupChunk(epoch uint64) {
	w := a.dev.w
	if a.ep.WarmupEpoch() != epoch || a.ep.WarmupReady() {
		return // aborted, superseded, or already complete
	}
	d := a.dev
	if d.ctrl == nil || !d.ctrl.Established() || d.Degraded() {
		a.ep.AbortWarmup()
		return
	}
	c, err := a.ep.CaptureWarmup(warmupChunkObjs)
	if err != nil || c == nil {
		return // a capture error already aborted the attempt
	}
	// Chunks are fire-and-forget: no request ID, no retry — losing one just
	// degrades to the cold path. The ack finds its way back by Seq.
	d.seq++
	req := &nodeproto.Request{Op: nodeproto.OpDSMWarmup, Seq: d.seq,
		DeviceID: d.ID, App: a.Name, Body: c.Encode()}
	if trace, parent, ok := w.Obs.Current(); ok {
		req.TraceID, req.SpanID = trace.Hex(), parent.Hex()
	}
	out := connWriter{c: d.ctrl}
	if err := nodeproto.WriteMessage(&out, req); err != nil {
		a.ep.AbortWarmup()
		return
	}
	d.warmAcks[req.Seq] = warmAck{app: a, epoch: epoch, index: c.Index}
	w.noteDeviceTransfer(out.n)
	// Chunk serialization is device CPU work, but paid concurrently: it
	// lands as power draw and as pacing between chunks, not as a stall of
	// the foreground burst this event interleaves with.
	cost := time.Duration(int64(out.n) * w.Cost.SerializeNsPerByte)
	w.CPU.NoteActive(w.Net.Now(), cost)
	if tr := w.Obs; tr.Enabled() {
		tr.Event(obs.PhaseDSMWarmup, obs.Bytes(out.n), obs.Count(int64(len(c.Objects))))
	}
	if c.Final {
		a.warmFinalIndex = c.Index
		return
	}
	w.Net.Schedule(cost, func() { a.sendWarmupChunk(epoch) })
}

// warmupAck processes one node acknowledgement, routed here by the device
// pump. Only the final chunk's positive ack arms the warm delta path
// (intermediate acks carry no promise the node holds the whole epoch); a
// rejection kills the attempt.
func (a *App) warmupAck(epoch uint64, index int, ok bool) {
	if a.ep.WarmupEpoch() != epoch {
		return // stale: a newer attempt, or none at all
	}
	if !ok {
		a.ep.AbortWarmup()
		return
	}
	if a.warmFinalIndex >= 0 && index == a.warmFinalIndex {
		a.ep.WarmupAcked()
	}
}

// settleWarmup decides the warm-up's fate at an offload trigger. If every
// chunk has been emitted but the final ack is still in flight, it waits
// one bounded RTT-scale grace for it; an attempt whose chunk stream the
// trigger outran is abandoned immediately. Either way, after this call
// the endpoint is unambiguously warm-ready or cold.
func (a *App) settleWarmup() {
	w := a.dev.w
	if a.ep.WarmupEpoch() == 0 || a.ep.WarmupReady() {
		return
	}
	if a.warmFinalIndex >= 0 {
		grace := 2*w.profile.Latency + 25*time.Millisecond
		deadline := w.Net.Now() + grace
		w.Net.Schedule(grace, func() {})
		w.Net.RunUntil(func() bool {
			if err := a.dev.pump(); err != nil {
				return true // the request path will surface the error
			}
			return a.ep.WarmupReady() || w.Net.Now() >= deadline
		})
	}
	if !a.ep.WarmupReady() {
		a.ep.AbortWarmup()
	}
}

// offload performs one device->node->device DSM round trip. It returns the
// continued thread, or the final result if the thread completed remotely.
func (a *App) offload(th *vm.Thread, reason vm.StopReason) (*vm.Thread, vm.Value, bool, error) {
	if !a.dev.w.enabled {
		return nil, vm.Value{}, false, fmt.Errorf("core: offload requested but TinMan is disabled")
	}
	w := a.dev.w
	t0 := w.Net.Now()

	// One DSM round trip is one span; the control_rpc child (and through it
	// the node's node_exec/sync_back) nests underneath.
	var span *obs.Span
	if tr := w.Obs; tr.Enabled() {
		span = tr.StartSpan(obs.PhaseDSMMigrate)
	}
	defer span.End()

	// Let a nearly-complete warm-up finish (or die) before capturing: the
	// capture must know definitively whether the warm delta path is armed.
	a.settleWarmup()

	var (
		resp *nodeproto.Response
		wire []byte
	)
	for {
		mig, err := a.ep.CaptureMigration(th, reason)
		if err != nil {
			return nil, vm.Value{}, false, err
		}
		mig.TriggerTag = uint64(a.lastTrigger)
		warm := mig.WarmEpoch != 0
		wire = mig.Encode()
		if span != nil {
			span.Add(obs.Bytes(len(wire)))
			span.Add(mig.ObsFields()...)
		}
		// Serialization is device CPU work.
		w.advanceDeviceWork(time.Duration(int64(len(wire)) * w.Cost.SerializeNsPerByte))

		resp, err = a.dev.request(&nodeproto.Request{Op: nodeproto.OpOffload,
			DeviceID: a.dev.ID, App: a.Name, Body: wire})
		if err != nil {
			// The node may never have seen this sync, or lost its copy in a
			// crash: forget the warm-up so the next offload re-ships the full
			// initial state instead of an incremental diff the node cannot
			// anchor. (Re-shipping to a node that did keep it is harmless: the
			// node's adopt path refreshes in place.)
			a.ep.ResetWarmup()
			return nil, vm.Value{}, false, err
		}
		if rerr := resp.Err(); errors.Is(rerr, node.ErrWarmStale) {
			if !warm {
				return nil, vm.Value{}, false, fmt.Errorf("core: node warm-missed a cold migration: %w", rerr)
			}
			// The node does not hold our epoch ready (reconnect to a restarted
			// node, shard handoff, torn warm-up): fall back to the cold path.
			// Resetting reverts the endpoint to "initial sync pending", so the
			// recapture ships the full snapshot under a fresh request ID — and
			// a cold migration can never warm-miss, so the loop runs at most
			// twice.
			a.Report.WarmMisses++
			a.ep.ResetWarmup()
			continue
		}
		if warm {
			a.Report.WarmHits++
		}
		break
	}
	a.Report.TriggerSyncBytes = len(wire)
	if a.Report.FirstTriggerSyncBytes == 0 {
		a.Report.FirstTriggerSyncBytes = len(wire)
	}
	if err := resp.Err(); err != nil {
		return nil, vm.Value{}, false, fmt.Errorf("core: trusted node refused offload: %w", err)
	}
	back, err := dsm.DecodeMigration(resp.Body)
	if err != nil {
		return nil, vm.Value{}, false, err
	}
	// Deserialization is device CPU work too.
	w.advanceDeviceWork(time.Duration(int64(len(resp.Body)) * w.Cost.SerializeNsPerByte))
	next, err := a.ep.ApplyMigration(back)
	if err != nil {
		return nil, vm.Value{}, false, err
	}

	a.Report.Migrations++
	a.Report.Syncs = a.ep.Stats.Syncs
	a.Report.InitBytes = a.ep.Stats.InitBytes
	a.Report.DirtyBytes = a.ep.Stats.DirtyBytes
	a.Report.WarmupChunks = a.ep.Stats.WarmupChunks
	a.Report.WarmupBytes = a.ep.Stats.WarmupBytes
	if st := resp.Stats; st != nil {
		a.Report.NodeInstrs = st.Instrs
		a.Report.NodeCalls = st.Calls
		a.Report.Syncs += st.Syncs
		a.Report.InitBytes += st.InitBytes
		a.Report.DirtyBytes += st.DirtyBytes
		if st.ExecStartNs > 0 {
			tte := time.Duration(st.ExecStartNs) - t0
			a.Report.TriggerToExec = tte
			if a.Report.FirstTriggerToExec == 0 {
				a.Report.FirstTriggerToExec = tte
			}
		}
	}
	a.Report.DSMTime += w.Net.Now() - t0

	if back.Reason == vm.StopDone {
		result, err := a.ep.DecodeResult(back)
		if err != nil {
			return nil, vm.Value{}, false, err
		}
		return nil, result, true, nil
	}
	if next == nil {
		return nil, vm.Value{}, false, fmt.Errorf("core: node returned %v without a thread", back.Reason)
	}
	return next, vm.Value{}, false, nil
}

// deviceResolver adapts the catalog to the DSM resolver interface.
type deviceResolver struct {
	dev *Device
}

// Fill returns placeholders: known cors from the catalog, derived cors via
// the deterministic same-length generator.
func (r *deviceResolver) Fill(id string, length int) (string, taint.Tag, bool) {
	if v, ok := r.dev.catalog[id]; ok {
		return v.Placeholder, taint.Bit(v.Bit), true
	}
	return cor.Placeholder(id, length), taint.None, true
}

// MaskID refuses: the device can never mint cor IDs, and under asymmetric
// tainting no maskable string should ever originate here.
func (r *deviceResolver) MaskID(o *vm.Object) string { return "" }

// registerDeviceNatives installs the device-side native methods on an app's
// VM.
func registerDeviceNatives(a *App) {
	a.machine.RegisterNative(&vm.NativeDef{
		Name:        "https_request",
		Offloadable: false,
		Fn:          a.nativeHTTPSRequest,
	})
	a.machine.RegisterNative(&vm.NativeDef{
		Name:        "ui_notify",
		Offloadable: false,
		Fn: func(t *vm.Thread, args []vm.Value) (vm.Value, error) {
			// Rendering a toast costs a little display work.
			a.dev.w.Display.NoteActive(a.dev.w.Net.Now(), 50*time.Millisecond)
			return vm.NullVal(), nil
		},
	})
}

// nativeHTTPSRequest implements https_request(host, request) -> response.
// Untainted requests go straight out over the app's TLS session. Tainted
// requests take the TinMan path: SSL session injection (§3.2) followed by a
// marked record that the egress filter redirects for payload replacement
// (§3.3).
func (a *App) nativeHTTPSRequest(t *vm.Thread, args []vm.Value) (vm.Value, error) {
	if len(args) != 2 {
		return vm.Value{}, fmt.Errorf("https_request takes (host, request)")
	}
	hostObj, reqObj := args[0].Ref, args[1].Ref
	if hostObj == nil || reqObj == nil {
		return vm.Value{}, fmt.Errorf("https_request with null argument")
	}
	d := a.dev
	w := d.w
	hc, err := d.httpsDial(hostObj.Str)
	if err != nil {
		return vm.Value{}, err
	}

	tainted := !reqObj.Tag.Empty() || reqObj.CorID != ""
	if tainted && !w.enabled {
		return vm.Value{}, fmt.Errorf("https_request: tainted payload without TinMan")
	}

	var rec []byte
	if tainted {
		rec, err = a.injectAndSeal(hc, reqObj)
		if err != nil {
			return vm.Value{}, err
		}
	} else {
		rec, err = hc.sess.Seal(tlssim.TypeApplicationData, []byte(reqObj.Str))
		if err != nil {
			return vm.Value{}, err
		}
	}
	if tainted && len(rec) > 1400 {
		return vm.Value{}, fmt.Errorf("https_request: marked record (%dB) exceeds one segment", len(rec))
	}

	if err := hc.tcp.Write(rec); err != nil {
		return vm.Value{}, err
	}
	w.noteDeviceTransfer(len(rec))

	// While the device waits on the origin server, the egress filter may
	// redirect the marked record through the node — tcp_replace attributes
	// itself under this span via Tracer.Current.
	var wait *obs.Span
	if tr := w.Obs; tr.Enabled() {
		wait = tr.StartSpan(obs.PhaseHTTPWait, obs.Domain(hc.domain))
	}
	resp, err := hc.awaitRecord(w.Net)
	if wait != nil {
		if err != nil {
			wait.Add(obs.Err(obs.ErrTimeout))
		} else {
			wait.Add(obs.Bytes(len(resp)))
		}
		wait.End()
	}
	if err != nil {
		return vm.Value{}, err
	}
	w.noteDeviceTransfer(len(resp) + 5)
	return vm.RefVal(a.machine.NewString(string(resp))), nil
}

// injectAndSeal runs the TinMan path for a tainted request: SSL session
// injection (§3.2, fig 8 steps 1–2) followed by sealing the placeholder
// under the marked record type for the egress filter to redirect. The whole
// stretch is one tls_inject span.
func (a *App) injectAndSeal(hc *httpsConn, reqObj *vm.Object) ([]byte, error) {
	d := a.dev
	w := d.w
	t0 := w.Net.Now()
	var span *obs.Span
	if tr := w.Obs; tr.Enabled() {
		span = tr.StartSpan(obs.PhaseTLSInject, obs.Cor(reqObj.CorID), obs.Domain(hc.domain))
	}
	defer span.End()
	if reqObj.CorID == "" {
		return nil, fmt.Errorf("https_request: tainted request has no cor identity")
	}
	// Extracting session state from the SSL library and arming the
	// filter is device work (§3.6).
	w.advanceDeviceWork(w.Cost.SSLStateSetup)
	// Step 1 (fig 8): ship the SSL session state to the trusted node.
	st := hc.sess.Export()
	if span != nil {
		span.Add(st.ObsFields()...)
	}
	stBytes, err := st.Marshal()
	if err != nil {
		return nil, err
	}
	resp, err := d.request(&nodeproto.Request{Op: nodeproto.OpInject,
		DeviceID: d.ID, App: a.Name, CorID: reqObj.CorID, Domain: hc.domain,
		ClientAddr: DeviceAddr, ClientPort: int(hc.tcp.LocalPort()),
		TargetIP: hc.addr, ServerPort: int(hc.port), State: stBytes})
	if err != nil {
		return nil, err
	}
	if err := resp.Err(); err != nil {
		return nil, fmt.Errorf("https_request: %w", err)
	}
	// Steps 2–3: seal the placeholder under the mark and let the filter
	// redirect it.
	if err := d.ensureFilter(); err != nil {
		return nil, err
	}
	rec, err := hc.sess.Seal(tlssim.TypeMarkedCor, []byte(reqObj.Str))
	if err != nil {
		return nil, err
	}
	a.Report.SSLTime += w.Net.Now() - t0
	return rec, nil
}
