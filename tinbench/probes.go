package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"tinman/internal/apps"
	"tinman/internal/audit"
	"tinman/internal/cor"
	"tinman/internal/dsm"
	"tinman/internal/node"
	"tinman/internal/nodeproto"
	"tinman/internal/policy"
	"tinman/internal/taint"
	"tinman/internal/tlssim"
	"tinman/internal/vm"
	"tinman/internal/vm/asm"
)

// Probe repetitions: each probe time is the median of this many calls.
const (
	vmReps    = 7
	tlsReps   = 15
	callReps  = 301
	pushReps  = 21
	storeReps = 101
)

// layerUnits lists every per-layer metric with its unit. Counts a
// workload does not produce (VM instructions on reseal, say) read 0.
var layerUnits = map[string]string{
	"sim_login_ms":            "ms",
	"vm.run_ms":               "ms",
	"vm.device_instrs":        "count",
	"vm.node_instrs":          "count",
	"vm.fast_share":           "ratio",
	"dsm.capture_ms":          "ms",
	"dsm.decode_ms":           "ms",
	"dsm.trigger_bytes":       "bytes",
	"dsm.warmup_bytes":        "bytes",
	"dsm.sync_bytes":          "bytes",
	"dsm.warm_hit_rate":       "ratio",
	"core.packets_per_op":     "count",
	"core.net_bytes_per_op":   "bytes",
	"core.migrations_per_op":  "count",
	"tls.handshake_ms":        "ms",
	"tls.reseal_us":           "us",
	"node.offload_ms":         "ms",
	"node.reseal_us":          "us",
	"policy.check_us":         "us",
	"policy.install_us":       "us",
	"store.commit_us":         "us",
	"store.records_per_op":    "count",
	"store.fsyncs_per_op":     "count",
	"store.records_per_fsync": "count",
	"nodeproto.encode_us":     "us",
	"nodeproto.decode_us":     "us",
	"nodeproto.ping_us":       "us",
	"nodeproto.bytes_per_op":  "bytes",
	"nodeproto.reconnects":    "count",
	"fleet.route_us":          "us",
	"fleet.handoff_ms":        "ms",
	"ctl.push_us":             "us",
	"ctl.revoke_us":           "us",
	"runtime.allocs_per_op":   "count",
	"trace.coverage":          "ratio",
	"trace.overhead_pct":      "%",
}

// layerMetrics assembles the traced run's per-layer metrics. Counts come
// from the traced phase of the workload itself. Times come from probes
// that call each layer's public functions on warmed instances built from
// the run's seed: the workload's own node and clients where it has them,
// otherwise a probe rig built by the same setup code.
func layerMetrics(name string, e *env, r rig, plain, tr phase) (map[string]metric, error) {
	vals := map[string]float64{}
	for k, v := range tr.counts {
		vals[k] = v
	}
	dir := filepath.Join(e.dir, "probes")
	if err := loginProbes(e, filepath.Join(dir, "login"), vals); err != nil {
		return nil, fmt.Errorf("login probes: %w", err)
	}
	if _, ok := r.(*loginRig); !ok {
		v, err := simLogin(e, filepath.Join(dir, "sim"))
		if err != nil {
			return nil, fmt.Errorf("sim login: %w", err)
		}
		vals["sim_login_ms"] = v
	}

	rr, own := r.(*resealRig)
	if !own {
		built, err := setupReseal(newEnv(e.seed, e.dir, e.originKey), filepath.Join(dir, "reseal"))
		if err != nil {
			return nil, err
		}
		defer built.close()
		if err := built.warm(); err != nil {
			return nil, err
		}
		rr = built.(*resealRig)
	}
	wireLen, err := resealProbes(rr, filepath.Join(dir, "store"), vals)
	if err != nil {
		return nil, fmt.Errorf("reseal probes: %w", err)
	}
	if _, login := r.(*loginRig); !login {
		vals["nodeproto.bytes_per_op"] = float64(wireLen)
	}

	fr, own := r.(*fleetRig)
	if !own {
		built, err := setupFleet(newEnv(e.seed, e.dir, e.originKey), filepath.Join(dir, "fleet"))
		if err != nil {
			return nil, err
		}
		defer built.close()
		if err := built.warm(); err != nil {
			return nil, err
		}
		fr = built.(*fleetRig)
	}
	if err := fleetProbes(fr, vals); err != nil {
		return nil, fmt.Errorf("fleet probes: %w", err)
	}

	plainP50 := p50(plain)
	tracedP50 := p50(tr)
	vals["trace.overhead_pct"] = 100 * ratio(tracedP50-plainP50, plainP50)
	vals["trace.coverage"] = ratio(coveredMs(name, vals), tracedP50)

	out := map[string]metric{}
	for k, unit := range layerUnits {
		out[k] = metric{vals[k], unit}
	}
	return out, nil
}

// coveredMs is the per-op time the probes account for, in ms: the sum
// over the layers on the op's blocking path of probe time × calls per op.
// Node-side probes (offload, reseal) include the policy check and store
// commits they make, so those are not added again.
func coveredMs(name string, v map[string]float64) float64 {
	switch name {
	case "login", "cold_login":
		return v["vm.run_ms"] +
			v["core.migrations_per_op"]*(v["dsm.capture_ms"]+v["dsm.decode_ms"]+v["node.offload_ms"]) +
			v["https_per_op"]*v["tls.handshake_ms"]
	case "fleet":
		return (v["nodeproto.ping_us"] + v["nodeproto.encode_us"] + v["nodeproto.decode_us"] +
			v["node.reseal_us"] + v["fleet.route_us"]) / 1000
	default:
		return (v["nodeproto.ping_us"] + v["nodeproto.encode_us"] + v["nodeproto.decode_us"] +
			v["node.reseal_us"]) / 1000
	}
}

// probeResolver is the device side's view of the catalog for the DSM
// endpoint: catalog cors fill with their placeholders, derived ones with
// same-length placeholders.
type probeResolver struct{ views map[string]cor.DeviceView }

func (p probeResolver) Fill(id string, length int) (string, taint.Tag, bool) {
	if v, ok := p.views[id]; ok {
		return v.Placeholder, taint.Bit(v.Bit), true
	}
	return cor.Placeholder(id, length), taint.None, true
}

func (probeResolver) MaskID(*vm.Object) string { return "" }

// loginProbes times, per paper app, the device VM run of the login method
// up to its offload stop (vm.run_ms), the capture and encode of the
// trigger migration (dsm.capture_ms), its decode (dsm.decode_ms), and the
// trusted node's handling of it (node.offload_ms) on a store-backed probe
// node. Each is the median over vmReps warm logins; the metric is the mean
// over the four apps, as the workloads run them in equal shares.
// tls.handshake_ms is a handshake with an origin-sized (1024-bit) key.
func loginProbes(e *env, dir string, vals map[string]float64) error {
	ctx := context.Background()
	st, err := openStore(dir, nil)
	if err != nil {
		return err
	}
	defer st.Close()
	svc := node.New(node.Options{})
	if err := svc.AttachStore(ctx, st); err != nil {
		return err
	}
	for _, s := range apps.LoginApps {
		if _, err := svc.RegisterCor(ctx, s.CorID, s.Password, s.Name+" password", s.Domain); err != nil {
			return err
		}
	}
	list, err := svc.Catalog(ctx)
	if err != nil {
		return err
	}
	views := map[string]cor.DeviceView{}
	for _, v := range list {
		views[v.ID] = v
	}
	var vmT, capT, decT, offT float64
	for _, name := range e.order {
		s, _ := apps.SpecByName(name)
		d, err := probeApp(ctx, svc, s, views)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		vmT += ms(d[0])
		capT += ms(d[1])
		decT += ms(d[2])
		offT += ms(d[3])
	}
	n := float64(len(e.order))
	vals["vm.run_ms"] = vmT / n
	vals["dsm.capture_ms"] = capT / n
	vals["dsm.decode_ms"] = decT / n
	vals["node.offload_ms"] = offT / n

	hs, err := timeCalls(tlsReps, func() error {
		_, _, _, err := tlssim.Handshake(tlssim.ClientConfig{MinVersion: tlssim.TLS11}, tlssim.ServerConfig{Key: e.originKey})
		return err
	})
	if err != nil {
		return err
	}
	vals["tls.handshake_ms"] = ms(hs)
	return nil
}

// probeApp returns the median VM run, capture+encode, decode and offload
// times of one app's trigger migration. Like a device logging in again
// and again, every rep starts a fresh login thread on one VM whose DSM
// endpoint and node-side shard persist; the first rep ships the initial
// sync and is left out, so the medians are of warm trigger migrations.
func probeApp(ctx context.Context, svc *node.Service, s apps.Spec, views map[string]cor.DeviceView) ([4]time.Duration, error) {
	var med [4]time.Duration
	prog, err := asm.Assemble(s.Name, s.Source())
	if err != nil {
		return med, err
	}
	view, ok := views[s.CorID]
	if !ok {
		return med, fmt.Errorf("cor %s not in catalog", s.CorID)
	}
	dev := "probe-" + s.Name
	res, err := svc.Install(ctx, node.InstallRequest{
		DeviceID: dev, Name: s.Name, Source: s.Source(),
		NonOffloadableNatives: []string{"https_request", "ui_notify"},
	})
	if err != nil {
		return med, err
	}
	if err := svc.BindApp(s.CorID, res.Hash); err != nil {
		return med, err
	}
	locks := dsm.NewLockTable()
	svc.SetAppLocks(dev, s.Name, locks)

	// The device VM as core.Device.InstallApp builds it: the app's
	// framework heap, lock hooks shared with the node, and device-only
	// natives (never reached before the offload stop).
	m := vm.New(vm.Config{Program: prog, Heap: vm.NewHeap(1, 2), Policy: taint.Asymmetric})
	var trigger taint.Tag
	m.Hooks.OnTaintedAccess = func(tag taint.Tag, _ taint.Event) bool { trigger = tag; return true }
	m.Hooks.OnMonitorEnter = func(o *vm.Object) bool { return !locks.Acquire(o.ID, dsm.DeviceSide) }
	m.Hooks.OnMonitorExit = func(o *vm.Object) { locks.Release(o.ID) }
	for _, native := range []string{"https_request", "ui_notify"} {
		m.RegisterNative(&vm.NativeDef{Name: native, Fn: func(*vm.Thread, []vm.Value) (vm.Value, error) {
			return vm.Value{}, errors.New("device native reached in a probe")
		}})
	}
	for i := 0; i < s.HeapKB*1024/256; i++ {
		m.NewString(strings.Repeat("f", 256-24))
	}
	ep := dsm.NewEndpoint(dsm.DeviceSide, m, probeResolver{views})

	samples := make([][]time.Duration, 4)
	for rep := 0; rep <= vmReps; rep++ {
		pw := m.NewTaintedString(view.Placeholder, taint.Bit(view.Bit))
		pw.CorID = view.ID
		th, err := m.NewThread(prog.Method(s.ClassName, "login"),
			vm.RefVal(m.NewString(s.Account)), vm.RefVal(pw), vm.RefVal(m.NewString(s.Domain)))
		if err != nil {
			return med, err
		}
		t0 := time.Now()
		stop, err := th.Run()
		t1 := time.Now()
		if err != nil {
			return med, err
		}
		if stop != vm.StopMigrateTaint {
			return med, fmt.Errorf("login stopped with %v, not at the offload trigger", stop)
		}
		mig, err := ep.CaptureMigration(th, stop)
		if err != nil {
			return med, err
		}
		mig.TriggerTag = uint64(trigger)
		wire := mig.Encode()
		t2 := time.Now()
		if _, err := dsm.DecodeMigration(wire); err != nil {
			return med, err
		}
		t3 := time.Now()
		out, err := svc.Offload(ctx, dev, s.Name, wire)
		t4 := time.Now()
		if err != nil {
			return med, err
		}
		// Apply the node's reply so the endpoints stay in sync for the
		// next rep's dirty-only capture.
		back, err := dsm.DecodeMigration(out.Bytes)
		if err != nil {
			return med, err
		}
		if _, err := ep.ApplyMigration(back); err != nil {
			return med, err
		}
		if rep == 0 {
			continue
		}
		for i, d := range []time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)} {
			samples[i] = append(samples[i], d)
		}
	}
	for i := range samples {
		sortDurations(samples[i])
		med[i] = quantile(samples[i], 0.5)
	}
	return med, nil
}

// resealProbes times the reseal path's layers on a reseal rig's node and
// first client, with the rig's own session, cor and device inputs. It
// returns the wire size of one reseal request and its response.
func resealProbes(r *resealRig, storeDir string, vals map[string]float64) (int, error) {
	ctx := context.Background()
	s := r.sess[0]
	c := resealCors()[0]
	req := node.ResealRequest{
		CorID: c.id, AppHash: benchApp, DeviceID: probeDevice, Domain: c.domain,
		State: s.state, RecordLen: s.recLen[c.id],
	}
	var rec []byte
	d, err := timeCalls(callReps, func() error {
		var err error
		rec, err = r.srv.Svc.Reseal(ctx, req)
		return err
	})
	if err != nil {
		return 0, err
	}
	vals["node.reseal_us"] = us(d)
	if err := s.verify(c, rec); err != nil {
		return 0, err
	}

	st, err := tlssim.UnmarshalState(s.state)
	if err != nil {
		return 0, err
	}
	if d, err = timeCalls(callReps, func() error {
		sess, err := tlssim.Resume(st, nil)
		if err != nil {
			return err
		}
		_, err = sess.Seal(tlssim.TypeApplicationData, []byte(c.plaintext))
		return err
	}); err != nil {
		return 0, err
	}
	vals["tls.reseal_us"] = us(d)

	acc := policy.Access{CorID: c.id, AppHash: benchApp, DeviceID: probeDevice, Send: true, Domain: c.domain}
	if d, err = timeCalls(callReps, func() error {
		_, err := r.srv.Svc.Policy.CheckStamped(acc)
		return err
	}); err != nil {
		return 0, err
	}
	vals["policy.check_us"] = us(d)

	eng := policy.NewEngine(time.Now)
	if d, err = timeCalls(callReps, func() error {
		_, err := eng.Install(policySnapshot())
		return err
	}); err != nil {
		return 0, err
	}
	vals["policy.install_us"] = us(d)

	pst, err := openStore(storeDir, nil)
	if err != nil {
		return 0, err
	}
	defer pst.Close()
	var seq uint64
	if d, err = timeCalls(storeReps, func() error {
		seq++
		return pst.AppendAudit(audit.Entry{
			Seq: seq, Time: time.Now(), AppHash: benchApp, CorID: c.id, DeviceID: probeDevice,
			Domain: c.domain, Outcome: audit.OutcomeAllowed, Detail: "record resealed", DeviceSeq: seq,
		}).Wait(ctx)
	}); err != nil {
		return 0, err
	}
	vals["store.commit_us"] = us(d)

	// The codec probes encode and decode the op's request and response
	// as a pipelined client and the server frame them.
	wreq := &nodeproto.Request{Op: nodeproto.OpReseal, Seq: 1, ReqID: "probe-1", CorID: c.id, State: s.state,
		AppHash: benchApp, DeviceID: probeDevice, Domain: c.domain, RecordLen: s.recLen[c.id]}
	wresp := &nodeproto.Response{OK: true, Seq: 1, Record: rec}
	var buf bytes.Buffer
	if d, err = timeCalls(callReps, func() error {
		buf.Reset()
		if err := nodeproto.WriteMessage(&buf, wreq); err != nil {
			return err
		}
		return nodeproto.WriteMessage(&buf, wresp)
	}); err != nil {
		return 0, err
	}
	vals["nodeproto.encode_us"] = us(d)
	wire := append([]byte(nil), buf.Bytes()...)
	if d, err = timeCalls(callReps, func() error {
		rd := bytes.NewReader(wire)
		var q nodeproto.Request
		var p nodeproto.Response
		if err := nodeproto.ReadMessage(rd, &q); err != nil {
			return err
		}
		return nodeproto.ReadMessage(rd, &p)
	}); err != nil {
		return 0, err
	}
	vals["nodeproto.decode_us"] = us(d)

	if d, err = timeCalls(callReps, func() error { return r.clients[0].PingContext(ctx) }); err != nil {
		return 0, err
	}
	vals["nodeproto.ping_us"] = us(d)
	return len(wire), nil
}

// fleetProbes times the fleet layer on a fleet rig: routing lookups,
// policy pushes, revoke+restore, and drain→uncordon→rebalance cycles.
func fleetProbes(r *fleetRig, vals map[string]float64) error {
	ctx := context.Background()
	devs := r.gens[0].devs
	i := 0
	d, err := timeCalls(callReps, func() error {
		i++
		_, err := r.f.Owner(devs[i%len(devs)])
		return err
	})
	if err != nil {
		return err
	}
	vals["fleet.route_us"] = us(d)
	if d, err = timeCalls(pushReps, func() error {
		_, err := r.f.InstallPolicy(ctx, policySnapshot())
		return err
	}); err != nil {
		return err
	}
	vals["ctl.push_us"] = us(d)
	if d, err = timeCalls(pushReps, func() error {
		if err := r.f.Revoke(spareDevice); err != nil {
			return err
		}
		return r.f.Restore(spareDevice)
	}); err != nil {
		return err
	}
	vals["ctl.revoke_us"] = us(d)
	moved0, time0 := r.moved, r.cycleTime
	for k := 0; k < 2; k++ {
		if err := r.cycle(ctx); err != nil {
			return err
		}
	}
	vals["fleet.handoff_ms"] = ratio(ms(r.cycleTime-time0), float64(r.moved-moved0))
	return nil
}
