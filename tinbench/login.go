package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tinman/internal/apps"
	"tinman/internal/cor"
	"tinman/internal/core"
	"tinman/internal/netsim"
	"tinman/internal/store"
	"tinman/internal/taint"
)

// storePass is the vault passphrase every benchmark store is sealed with
// (tinman-node takes it from TINMAN_STORE_KEY).
const storePass = "tinbench-store-passphrase"

// openStore opens a store with tinman-node's -store options: no automatic
// snapshots and a CommitInterval of 0, so every acknowledged record waits
// out its own group commit. A nil sealer derives one from storePass, which
// runs the passphrase KDF.
func openStore(dir string, sealer *cor.Sealer) (*store.Store, error) {
	opts := store.Options{Dir: dir, Sealer: sealer}
	if sealer == nil {
		opts.Passphrase = storePass
	}
	st, err := store.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("opening store %s: %w", dir, err)
	}
	return st, nil
}

// loginWorld is one store-backed login environment: the four paper apps
// installed and bound on one in-process core.World over Wi-Fi.
type loginWorld struct {
	env *apps.Env
	st  *store.Store
	dir string
}

// buildLoginWorld assembles what apps.NewLoginEnv builds, except that the
// trusted node's store is attached before any cor is registered, as
// tinman-node -store does: every registration, binding and audit entry
// goes through the WAL.
func buildLoginWorld(netSeed int64, dir string, sealer *cor.Sealer) (*loginWorld, error) {
	st, err := openStore(dir, sealer)
	if err != nil {
		return nil, err
	}
	lw := &loginWorld{st: st, dir: dir}
	w, err := core.NewWorld(core.Config{
		Seed:          netSeed,
		Profile:       netsim.WiFi,
		DevicePolicy:  taint.Asymmetric,
		TinManEnabled: true,
	})
	if err != nil {
		lw.close()
		return nil, err
	}
	if err := w.Node.AttachStore(st); err != nil {
		lw.close()
		return nil, fmt.Errorf("attaching store: %w", err)
	}
	env := &apps.Env{
		World:   w,
		Servers: make(map[string]*apps.OriginServer, len(apps.LoginApps)),
		Apps:    make(map[string]*core.App, len(apps.LoginApps)),
		Specs:   apps.LoginApps,
	}
	lw.env = env
	for _, s := range apps.LoginApps {
		srv, err := apps.NewOriginServer(w, s.Domain, s.Addr, map[string]string{s.Account: s.Password})
		if err != nil {
			lw.close()
			return nil, fmt.Errorf("origin %s: %w", s.Name, err)
		}
		env.Servers[s.Name] = srv
		if _, err := w.Node.RegisterCor(s.CorID, s.Password, s.Name+" password", s.Domain); err != nil {
			lw.close()
			return nil, err
		}
	}
	if err := w.Device.RefreshCatalog(); err != nil {
		lw.close()
		return nil, err
	}
	for _, s := range apps.LoginApps {
		app, err := w.Device.InstallApp(s.Name, s.Source(), s.HeapKB)
		if err != nil {
			lw.close()
			return nil, fmt.Errorf("installing %s: %w", s.Name, err)
		}
		env.Apps[s.Name] = app
		if err := w.Node.BindApp(s.CorID, app.Hash()); err != nil {
			lw.close()
			return nil, err
		}
	}
	return lw, nil
}

func (lw *loginWorld) close() {
	if lw.st != nil {
		lw.st.Close()
	}
	os.RemoveAll(lw.dir)
}

// login runs one app's login and checks it: apps.Env.Login already
// requires the method to return 1, and the origin must have received the
// real password's hash, which only the trusted node can have computed.
func (lw *loginWorld) login(name string) (*core.Report, error) {
	spec, _ := apps.SpecByName(name)
	srv := lw.env.Servers[name]
	srv.Requests = srv.Requests[:0]
	rep, err := lw.env.Login(name)
	if err != nil {
		return nil, err
	}
	if !srv.SawSubstring(apps.PasswordHash(spec.Password)) {
		return nil, fmt.Errorf("%s: origin never saw the real password hash", name)
	}
	return rep, nil
}

// loginCounts are a world's cumulative counters; the traced phase reports
// their per-login deltas.
type loginCounts struct {
	packets, netBytes, records, syncs         uint64
	devInstrs, nodeInstrs, fastInstrs, instrs uint64
	migrations, warmHits, warmMisses          int
	warmupBytes, syncBytes                    int
}

func (lw *loginWorld) counts() loginCounts {
	var c loginCounts
	c.packets, c.netBytes = lw.env.World.Net.Stats()
	st := lw.st.Stats()
	c.records, c.syncs = st.Records, st.Syncs
	for _, a := range lw.env.Apps {
		r := a.Report
		c.devInstrs += r.DeviceInstrs
		c.nodeInstrs += r.NodeInstrs
		c.fastInstrs += a.VM().FastInstrs
		c.instrs += a.VM().Instrs
		c.migrations += r.Migrations
		c.warmHits += r.WarmHits
		c.warmMisses += r.WarmMisses
		c.warmupBytes += r.WarmupBytes
		c.syncBytes += r.InitBytes + r.DirtyBytes
	}
	return c
}

// plus returns acc + (now - base), field by field.
func (acc loginCounts) plus(now, base loginCounts) loginCounts {
	acc.packets += now.packets - base.packets
	acc.netBytes += now.netBytes - base.netBytes
	acc.records += now.records - base.records
	acc.syncs += now.syncs - base.syncs
	acc.devInstrs += now.devInstrs - base.devInstrs
	acc.nodeInstrs += now.nodeInstrs - base.nodeInstrs
	acc.fastInstrs += now.fastInstrs - base.fastInstrs
	acc.instrs += now.instrs - base.instrs
	acc.migrations += now.migrations - base.migrations
	acc.warmHits += now.warmHits - base.warmHits
	acc.warmMisses += now.warmMisses - base.warmMisses
	acc.warmupBytes += now.warmupBytes - base.warmupBytes
	acc.syncBytes += now.syncBytes - base.syncBytes
	return acc
}

// loginRig drives the login and cold_login workloads: one closed loop (the
// simulation event loop is single-threaded) over the four paper apps in a
// seeded round-robin order.
//
// Each world serves a fixed number of timed logins and is then replaced,
// untimed, by a fresh one. login latency on one world rises with the
// number of logins it has served (about half again over its first ~180
// logins on a 2-vCPU Xeon VM), so without the cap a faster run would
// measure an older world.
// cold_login replaces its world after one login per app; a fresh world per
// round also keeps memory flat, as every installed app holds its framework
// heap on device and node for the life of its world.
type loginRig struct {
	e     *env
	dir   string
	cold  bool
	order []string
	lw    *loginWorld
	// sealer is derived once in setup; every world's store is opened with
	// it, so the KDF runs once per setup, not once per world.
	sealer *cor.Sealer
	worlds int
	// pending lists the logins the current world has left to serve.
	pending []string
	// untimed and untimedAllocs are the time and allocations spent
	// replacing worlds; they are left out of the phase's figures.
	untimed       time.Duration
	untimedAllocs uint64
	// auditErr keeps the first audit-check failure of a retired world.
	auditErr error
}

const (
	// loginsPerApp is how many timed logins each app makes on one world
	// of the login workload, after warmRounds untimed ones.
	loginsPerApp = 12
	warmRounds   = 2
)

func setupLogin(e *env, dir string, cold bool) (rig, error) {
	r := &loginRig{e: e, dir: dir, cold: cold, order: e.appOrder()}
	salt, err := cor.NewSealerSalt()
	if err != nil {
		return nil, err
	}
	if r.sealer, err = cor.NewSealer(storePass, salt); err != nil {
		return nil, err
	}
	if r.lw, err = buildLoginWorld(e.netSeed, filepath.Join(dir, "world-0"), r.sealer); err != nil {
		return nil, err
	}
	r.fill()
	return r, nil
}

// fill queues the current world's timed logins.
func (r *loginRig) fill() {
	n := loginsPerApp
	if r.cold {
		n = 1
	}
	for i := 0; i < n; i++ {
		r.pending = append(r.pending, r.order...)
	}
}

// warm gives each app of a login-workload world warmRounds untimed
// logins, so the initial DSM sync and first-run costs are behind the timed
// logins. cold_login has nothing to warm: its first logins are the
// measurement.
func (r *loginRig) warm() error {
	if r.cold {
		return nil
	}
	for round := 0; round < warmRounds; round++ {
		for _, name := range r.order {
			if _, err := r.lw.login(name); err != nil {
				return fmt.Errorf("warm-up login: %w", err)
			}
		}
	}
	return nil
}

// newWorld checks the audit trail of the current world, then replaces it
// with a fresh, warmed one.
func (r *loginRig) newWorld() error {
	t0, mem0 := time.Now(), readMem()
	defer func() {
		r.untimed += time.Since(t0)
		r.untimedAllocs += readMem().mallocs - mem0.mallocs
	}()
	if err := r.check(); err != nil && r.auditErr == nil {
		r.auditErr = err
	}
	r.worlds++
	r.lw.close()
	r.lw = nil
	lw, err := buildLoginWorld(r.e.netSeed+int64(r.worlds), filepath.Join(r.dir, fmt.Sprintf("world-%d", r.worlds)), r.sealer)
	if err != nil {
		return err
	}
	r.lw = lw
	r.fill()
	return r.warm()
}

func (r *loginRig) run(d time.Duration, traced bool) (phase, error) {
	deadline := time.Now().Add(d)
	return r.loop(func(int) bool { return time.Now().Before(deadline) })
}

// loop runs logins while more(i) holds for the op index i, and returns
// the phase with its per-login counts.
func (r *loginRig) loop(more func(i int) bool) (phase, error) {
	var (
		p         phase
		simTotal  time.Duration
		trigBytes int
		requests  int
		acc       loginCounts
		base      = r.lw.counts()
		mem0      = readMem()
	)
	start, untimed0, allocs0 := time.Now(), r.untimed, r.untimedAllocs
	for i := 0; more(i); i++ {
		if len(r.pending) == 0 {
			acc = acc.plus(r.lw.counts(), base)
			if err := r.newWorld(); err != nil {
				return p, err
			}
			base = r.lw.counts()
		}
		var name string
		name, r.pending = r.pending[0], r.pending[1:]
		srv := r.lw.env.Servers[name]
		p.attempted++
		t0 := time.Now()
		rep, err := r.lw.login(name)
		lat := time.Since(t0)
		if err != nil {
			p.fail(err)
			continue
		}
		p.lat = append(p.lat, lat)
		p.kind = append(p.kind, name)
		p.ends = append(p.ends, time.Since(start)-(r.untimed-untimed0))
		simTotal += rep.Total
		trigBytes += rep.TriggerSyncBytes
		requests += len(srv.Requests)
	}
	p.elapsed = time.Since(start) - (r.untimed - untimed0)
	mem1 := readMem()
	acc = acc.plus(r.lw.counts(), base)
	n := float64(len(p.lat))
	p.counts = map[string]float64{
		"sim_login_ms":            ratio(ms(simTotal), n),
		"vm.device_instrs":        ratio(float64(acc.devInstrs), n),
		"vm.node_instrs":          ratio(float64(acc.nodeInstrs), n),
		"vm.fast_share":           ratio(float64(acc.fastInstrs), float64(acc.instrs)),
		"dsm.trigger_bytes":       ratio(float64(trigBytes), n),
		"dsm.warmup_bytes":        ratio(float64(acc.warmupBytes), n),
		"dsm.sync_bytes":          ratio(float64(acc.syncBytes), n),
		"dsm.warm_hit_rate":       ratio(float64(acc.warmHits), float64(acc.warmHits+acc.warmMisses)),
		"core.packets_per_op":     ratio(float64(acc.packets), n),
		"core.net_bytes_per_op":   ratio(float64(acc.netBytes), n),
		"core.migrations_per_op":  ratio(float64(acc.migrations), n),
		"store.records_per_op":    ratio(float64(acc.records), n),
		"store.fsyncs_per_op":     ratio(float64(acc.syncs), n),
		"store.records_per_fsync": ratio(float64(acc.records), float64(acc.syncs)),
		"runtime.allocs_per_op":   ratio(float64(mem1.mallocs-mem0.mallocs-(r.untimedAllocs-allocs0)), n),
		"https_per_op":            ratio(float64(requests), n),
	}
	return p, nil
}

// check confirms the trusted node's audit trail: every device's DeviceSeq
// must run 1..n without a gap.
func (r *loginRig) check() error {
	if r.auditErr != nil {
		return r.auditErr
	}
	return checkAuditGapFree(auditEntries(r.lw.env.World.Node.Svc))
}

func (r *loginRig) close() {
	if r.lw != nil {
		r.lw.close()
	}
}

// simLogin returns the mean modelled (netsim clock) login latency of one
// login per app on a fresh world — sim_login_ms for workloads that do no
// logins of their own.
func simLogin(e *env, dir string) (float64, error) {
	lw, err := buildLoginWorld(e.netSeed, dir, nil)
	if err != nil {
		return 0, err
	}
	defer lw.close()
	var total time.Duration
	for _, name := range e.appOrder() {
		rep, err := lw.login(name)
		if err != nil {
			return 0, err
		}
		total += rep.Total
	}
	return ms(total) / float64(len(apps.LoginApps)), nil
}
