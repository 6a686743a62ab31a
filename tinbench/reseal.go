package main

import (
	"context"
	"crypto/rsa"
	"encoding/json"
	"fmt"
	mrand "math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tinman/internal/apps"
	"tinman/internal/audit"
	"tinman/internal/fleet"
	"tinman/internal/node"
	"tinman/internal/nodeproto"
	"tinman/internal/policy"
	"tinman/internal/store"
	"tinman/internal/tlssim"
)

const (
	// warmFor is the untimed warm-up of the reseal and fleet loops.
	warmFor = time.Second
	// devicePop is the number of device IDs the reseal ops spread over.
	devicePop = 64
	// denyEvery: one op in this many targets a non-whitelisted domain and
	// must be denied.
	denyEvery = 16
	// benchApp is the app hash the reseal ops present; no cor is bound, so
	// any app may use it.
	benchApp = "tinbench-app"
	// rogueDomain is outside every cor's whitelist.
	rogueDomain = "rogue.example"
	// spareDevice is the fleet workload's revoke/restore target.
	spareDevice = "spare-dev"
	probeDevice = "probe-dev"
)

// resealCor is one cor the reseal ops seal: the paper apps' passwords.
type resealCor struct{ id, plaintext, domain string }

func resealCors() []resealCor {
	var out []resealCor
	for _, s := range apps.LoginApps {
		out = append(out, resealCor{s.CorID, s.Password, s.Domain})
	}
	return out
}

// policySnapshot is the document the fleet workload pushes: the same
// whitelists the cors were registered with, so a push never changes an
// op's outcome.
func policySnapshot() *policy.Snapshot {
	snap := &policy.Snapshot{Whitelist: map[string][]string{}}
	for _, c := range resealCors() {
		snap.Whitelist[c.id] = []string{c.domain}
	}
	return snap
}

// session is one device's TLS session with an origin: the exported device
// half the device ships with every reseal, the origin half that must open
// the node's record, and each cor's placeholder record length.
type session struct {
	state  json.RawMessage
	origin *tlssim.State
	recLen map[string]int
}

func newSession(key *rsa.PrivateKey, placeholders map[string]string) (*session, error) {
	dev, origin, _, err := tlssim.Handshake(tlssim.ClientConfig{MinVersion: tlssim.TLS11}, tlssim.ServerConfig{Key: key})
	if err != nil {
		return nil, err
	}
	s := &session{origin: origin.Export(), recLen: map[string]int{}}
	if s.state, err = json.Marshal(dev.Export()); err != nil {
		return nil, err
	}
	for id, ph := range placeholders {
		// The device seals the placeholder on a resumed copy only to learn
		// the record length the node's record must match.
		probe, err := tlssim.Resume(dev.Export(), nil)
		if err != nil {
			return nil, err
		}
		rec, err := probe.Seal(tlssim.TypeMarkedCor, []byte(ph))
		if err != nil {
			return nil, err
		}
		s.recLen[id] = len(rec)
	}
	return s, nil
}

// verify checks a reseal reply: it must open under the origin half to the
// cor plaintext, at the placeholder record's length.
func (s *session) verify(c resealCor, rec []byte) error {
	if len(rec) != s.recLen[c.id] {
		return fmt.Errorf("record is %dB, placeholder record %dB", len(rec), s.recLen[c.id])
	}
	origin, err := tlssim.Resume(s.origin, nil)
	if err != nil {
		return err
	}
	typ, pt, _, err := origin.Open(rec)
	if err != nil {
		return fmt.Errorf("origin cannot open the record: %w", err)
	}
	if typ != tlssim.TypeApplicationData || string(pt) != c.plaintext {
		return fmt.Errorf("origin opened a type %d record with the wrong plaintext", typ)
	}
	return nil
}

// expectDenial checks that err is a policy denial for the given reason.
func expectDenial(err error, want policy.Reason) error {
	if err == nil {
		return fmt.Errorf("expected a %q denial, got success", want)
	}
	d, ok := nodeproto.IsDenied(err)
	if !ok {
		return fmt.Errorf("expected a %q denial: %w", want, err)
	}
	if r, ok := policy.ReasonFromCode(d.Code); !ok || r != want {
		return fmt.Errorf("denied for %q, want %q", d.Reason, want)
	}
	return nil
}

// op is one generated reseal.
type op struct {
	dev  string
	cor  resealCor
	deny bool
}

// opGen generates one session's ops from the seed: its share of the
// seeded device permutation in turn, a seeded cor per op, and one denial
// per denyEvery ops at a seeded offset.
type opGen struct {
	rng    *mrand.Rand
	devs   []string
	cors   []resealCor
	denyAt int
	j      int
}

func newOpGens(e *env, n int) []*opGen {
	perm := e.rng.Perm(devicePop)
	gens := make([]*opGen, n)
	for g := range gens {
		gens[g] = &opGen{rng: mrand.New(mrand.NewSource(e.rng.Int63())), cors: resealCors()}
		gens[g].denyAt = gens[g].rng.Intn(denyEvery)
	}
	for i, p := range perm {
		g := gens[i%n]
		g.devs = append(g.devs, fmt.Sprintf("dev-%02d", p))
	}
	return gens
}

func (g *opGen) next() op {
	o := op{
		dev:  g.devs[g.j%len(g.devs)],
		cor:  g.cors[g.rng.Intn(len(g.cors))],
		deny: g.j%denyEvery == g.denyAt,
	}
	g.j++
	return o
}

// sealFunc performs one reseal over the wire.
type sealFunc func(ctx context.Context, s *session, o op, domain string) ([]byte, error)

// doOp runs one op and checks its outcome; it returns the op's latency.
func doOp(ctx context.Context, seal sealFunc, s *session, o op) (time.Duration, error) {
	domain := o.cor.domain
	if o.deny {
		domain = rogueDomain
	}
	t0 := time.Now()
	rec, err := seal(ctx, s, o, domain)
	lat := time.Since(t0)
	if o.deny {
		return lat, expectDenial(err, policy.ReasonDomainNotAllowed)
	}
	if err != nil {
		return lat, err
	}
	return lat, s.verify(o.cor, rec)
}

// loop drives one closed-loop session until the deadline. Each op holds
// gate, when set, for reading, so a writer can pause traffic. between,
// when set, runs after every op with the session's op count, outside the
// timed region.
func loop(ctx context.Context, seal sealFunc, s *session, g *opGen, start, deadline time.Time, gate *sync.RWMutex, between func(n int) error) phase {
	var p phase
	for n := 1; time.Now().Before(deadline); n++ {
		o := g.next()
		if gate != nil {
			gate.RLock()
		}
		lat, err := doOp(ctx, seal, s, o)
		if gate != nil {
			gate.RUnlock()
		}
		p.attempted++
		if err != nil {
			p.fail(fmt.Errorf("%s %s: %w", o.dev, o.cor.id, err))
		} else {
			p.lat = append(p.lat, lat)
			p.ends = append(p.ends, time.Since(start))
		}
		if between != nil {
			if err := between(n); err != nil {
				p.attempted++
				p.fail(err)
			}
		}
	}
	return p
}

// drive runs every session's loop concurrently and merges their phases.
func drive(d time.Duration, n int, one func(g int, start, deadline time.Time) phase) phase {
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]phase, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			parts[g] = one(g, start, deadline)
		}(g)
	}
	wg.Wait()
	var p phase
	p.elapsed = time.Since(start)
	for _, q := range parts {
		p.lat = append(p.lat, q.lat...)
		p.ends = append(p.ends, q.ends...)
		p.attempted += q.attempted
		p.failed += q.failed
		if p.firstErr == nil {
			p.firstErr = q.firstErr
		}
	}
	return p
}

// catalogPlaceholders maps cor ID to its device-visible placeholder.
func catalogPlaceholders(svc *node.Service) (map[string]string, error) {
	views, err := svc.Catalog(context.Background())
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, v := range views {
		out[v.ID] = v.Placeholder
	}
	return out, nil
}

func newSessions(e *env, svc *node.Service) ([]*session, error) {
	ph, err := catalogPlaceholders(svc)
	if err != nil {
		return nil, err
	}
	out := make([]*session, sessions())
	for i := range out {
		if out[i], err = newSession(e.originKey, ph); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// listen serves srv on a loopback port.
func listen(srv *nodeproto.Server) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go srv.Serve(l)
	return l.Addr().String(), nil
}

// resealRig is the reseal workload: one store-backed node behind a
// nodeproto server on loopback TCP, and one ReconnectClient (the client
// tinman-device uses) per device session.
type resealRig struct {
	dir     string
	st      *store.Store
	srv     *nodeproto.Server
	clients []*nodeproto.ReconnectClient
	sess    []*session
	gens    []*opGen
}

func setupReseal(e *env, dir string) (rig, error) {
	r := &resealRig{dir: dir}
	var err error
	if r.st, err = openStore(dir, nil); err != nil {
		return nil, err
	}
	r.srv = nodeproto.NewServer()
	if err := r.srv.Svc.AttachStore(context.Background(), r.st); err != nil {
		r.close()
		return nil, err
	}
	for _, c := range resealCors() {
		if _, err := r.srv.Svc.RegisterCor(context.Background(), c.id, c.plaintext, c.id, c.domain); err != nil {
			r.close()
			return nil, err
		}
	}
	addr, err := listen(r.srv)
	if err != nil {
		r.close()
		return nil, err
	}
	if r.sess, err = newSessions(e, r.srv.Svc); err != nil {
		r.close()
		return nil, err
	}
	for range r.sess {
		r.clients = append(r.clients, nodeproto.DialReconnect(addr, 5*time.Second, nodeproto.ReconnectConfig{}))
	}
	r.gens = newOpGens(e, len(r.sess))
	return r, nil
}

func (r *resealRig) seal(g int) sealFunc {
	c := r.clients[g]
	return func(ctx context.Context, s *session, o op, domain string) ([]byte, error) {
		return c.ResealRawContext(ctx, o.cor.id, s.state, benchApp, o.dev, domain, "", s.recLen[o.cor.id])
	}
}

// warm runs the loop untimed for warmFor, so connections, caches and the
// store's files are warm before timing.
func (r *resealRig) warm() error {
	p, _ := r.run(warmFor, false)
	return p.firstErr
}

func (r *resealRig) run(d time.Duration, traced bool) (phase, error) {
	st0, mem0, rc0 := r.st.Stats(), readMem(), r.reconnects()
	p := drive(d, len(r.sess), func(g int, start, deadline time.Time) phase {
		return loop(context.Background(), r.seal(g), r.sess[g], r.gens[g], start, deadline, nil, nil)
	})
	if traced {
		p.counts = resealCounts(p, st0, r.st.Stats(), mem0, readMem())
		p.counts["nodeproto.reconnects"] = float64(r.reconnects() - rc0)
	}
	return p, nil
}

func (r *resealRig) reconnects() uint64 {
	var n uint64
	for _, c := range r.clients {
		n += c.Reconnects()
	}
	return n
}

// resealCounts derives the per-op store and allocation counts of a phase.
func resealCounts(p phase, st0, st1 store.Stats, mem0, mem1 memSnap) map[string]float64 {
	n := float64(len(p.lat))
	rec, syncs := float64(st1.Records-st0.Records), float64(st1.Syncs-st0.Syncs)
	return map[string]float64{
		"store.records_per_op":    ratio(rec, n),
		"store.fsyncs_per_op":     ratio(syncs, n),
		"store.records_per_fsync": ratio(rec, syncs),
		"runtime.allocs_per_op":   ratio(float64(mem1.mallocs-mem0.mallocs), n),
	}
}

func (r *resealRig) check() error {
	return checkAuditGapFree(auditEntries(r.srv.Svc))
}

func (r *resealRig) close() {
	for _, c := range r.clients {
		c.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	if r.st != nil {
		r.st.Close()
	}
	os.RemoveAll(r.dir)
}

// Fleet control actions ride the first session at fixed op periods with
// seeded offsets: a policy push, a revoke/restore of the spare device, and
// a drain→uncordon→rebalance cycle with traffic paused.
const (
	pushEvery   = 256
	revokeEvery = 384
	cycleEvery  = 2048
)

// fleetPlan holds the seeded offsets of the control actions.
type fleetPlan struct {
	pushAt, revokeAt, cycleAt int
}

// fleetRig is the fleet workload: a two-member fleet of store-backed
// nodes, one nodeproto server per member gated by the fleet's placement
// and control plane, and one FleetClient shared by the device sessions.
type fleetRig struct {
	dir     string
	f       *fleet.Fleet
	stores  map[string]*store.Store
	servers []*nodeproto.Server
	fc      *nodeproto.FleetClient
	sess    []*session
	gens    []*opGen
	gate    sync.RWMutex
	plan    fleetPlan
	rng     *mrand.Rand
	// moved and cycleTime total the handoff cycles run so far.
	moved     int
	cycleTime time.Duration
}

func setupFleet(e *env, dir string) (rig, error) {
	r := &fleetRig{dir: dir, stores: map[string]*store.Store{}}
	ctx := context.Background()
	var mu sync.Mutex
	f, err := fleet.New(fleet.Config{
		MemberIDs: []string{"node-1", "node-2"},
		NewService: func(id string) (*node.Service, error) {
			st, err := openStore(filepath.Join(dir, id), nil)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			r.stores[id] = st
			mu.Unlock()
			svc := node.New(node.Options{})
			if err := svc.AttachStore(ctx, st); err != nil {
				return nil, err
			}
			return svc, nil
		},
	})
	if err != nil {
		r.close()
		return nil, err
	}
	r.f = f
	for _, c := range resealCors() {
		if err := f.RegisterCor(ctx, c.id, c.plaintext, c.id, c.domain); err != nil {
			r.close()
			return nil, err
		}
	}
	members := map[string]string{}
	for _, id := range f.Members() {
		svc, err := f.MemberService(id)
		if err != nil {
			r.close()
			return nil, err
		}
		srv := nodeproto.NewServerWith(svc)
		srv.SetPlacement(id, f)
		srv.SetControlPlane(f)
		r.servers = append(r.servers, srv)
		if members[id], err = listen(srv); err != nil {
			r.close()
			return nil, err
		}
	}
	svc, _ := f.MemberService(f.Members()[0])
	if r.sess, err = newSessions(e, svc); err != nil {
		r.close()
		return nil, err
	}
	r.fc = nodeproto.DialFleet(members, 5*time.Second, nodeproto.ReconnectConfig{})
	r.gens = newOpGens(e, len(r.sess))
	r.rng = mrand.New(mrand.NewSource(e.rng.Int63()))
	r.plan = fleetPlan{
		pushAt:   r.rng.Intn(pushEvery),
		revokeAt: r.rng.Intn(revokeEvery),
		cycleAt:  r.rng.Intn(cycleEvery),
	}
	return r, nil
}

func (r *fleetRig) seal(ctx context.Context, s *session, o op, domain string) ([]byte, error) {
	rec, _, err := r.fc.Reseal(ctx, o.cor.id, s.state, benchApp, o.dev, domain, "", s.recLen[o.cor.id])
	return rec, err
}

// warm sends one op per device, so every device has a shard and a route,
// then runs the loop untimed for warmFor.
func (r *fleetRig) warm() error {
	for g, gen := range r.gens {
		for range gen.devs {
			if _, err := doOp(context.Background(), r.seal, r.sess[g], gen.next()); err != nil {
				return fmt.Errorf("fleet warm-up: %w", err)
			}
		}
	}
	p, _ := r.run(warmFor, false)
	return p.firstErr
}

// control runs the first session's interleaved control actions.
func (r *fleetRig) control(n int) error {
	ctx := context.Background()
	if n%pushEvery == r.plan.pushAt {
		if _, err := r.f.InstallPolicy(ctx, policySnapshot()); err != nil {
			return fmt.Errorf("policy push: %w", err)
		}
	}
	if n%revokeEvery == r.plan.revokeAt {
		if err := r.revokeCheck(ctx); err != nil {
			return err
		}
	}
	if n%cycleEvery == r.plan.cycleAt {
		if err := r.cycle(ctx); err != nil {
			return err
		}
	}
	return nil
}

// revokeCheck revokes the spare device, requires its reseal to be denied
// as revoked, and restores it.
func (r *fleetRig) revokeCheck(ctx context.Context) error {
	if err := r.f.Revoke(spareDevice); err != nil {
		return fmt.Errorf("revoke: %w", err)
	}
	c := resealCors()[0]
	_, err := r.seal(ctx, r.sess[0], op{dev: spareDevice, cor: c}, c.domain)
	if err := expectDenial(err, policy.ReasonRevoked); err != nil {
		return fmt.Errorf("revoked device: %w", err)
	}
	if err := r.f.Restore(spareDevice); err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	return nil
}

// cycle drains a seeded member, uncordons it and rebalances, with every
// session paused: a request reaching the source between DetachShard and
// the owner update re-creates the shard there (see NOTES.md).
func (r *fleetRig) cycle(ctx context.Context) error {
	r.gate.Lock()
	defer r.gate.Unlock()
	return r.handoffCycle(ctx)
}

// handoffCycle is one drain→uncordon→rebalance cycle; the caller decides
// whether traffic is paused.
func (r *fleetRig) handoffCycle(ctx context.Context) error {
	members := r.f.Members()
	id := members[r.rng.Intn(len(members))]
	t0 := time.Now()
	moved, err := r.f.Drain(ctx, id)
	if err != nil {
		return fmt.Errorf("drain %s: %w", id, err)
	}
	if err := r.f.Uncordon(id); err != nil {
		return err
	}
	back, err := r.f.Rebalance(ctx)
	if err != nil {
		return fmt.Errorf("rebalance: %w", err)
	}
	r.cycleTime += time.Since(t0)
	r.moved += moved + back
	return nil
}

func (r *fleetRig) run(d time.Duration, traced bool) (phase, error) {
	st0, mem0, rc0 := r.storeStats(), readMem(), r.reconnects()
	p := drive(d, len(r.sess), func(g int, start, deadline time.Time) phase {
		var between func(int) error
		if g == 0 {
			between = r.control
		}
		return loop(context.Background(), r.seal, r.sess[g], r.gens[g], start, deadline, &r.gate, between)
	})
	if traced {
		p.counts = resealCounts(p, st0, r.storeStats(), mem0, readMem())
		p.counts["nodeproto.reconnects"] = float64(r.reconnects() - rc0)
	}
	return p, nil
}

func (r *fleetRig) storeStats() store.Stats {
	var s store.Stats
	for _, st := range r.stores {
		x := st.Stats()
		s.Records += x.Records
		s.Syncs += x.Syncs
	}
	return s
}

func (r *fleetRig) reconnects() uint64 {
	var n uint64
	for _, id := range r.fc.Members() {
		if c, ok := r.fc.Member(id); ok {
			n += c.Reconnects()
		}
	}
	return n
}

// check merges both members' audit logs (each device's DeviceSeq must be
// gap-free across them) and requires every device to have one shard.
func (r *fleetRig) check() error {
	var all []audit.Entry
	where := map[string]string{}
	for _, id := range r.f.Members() {
		svc, err := r.f.MemberService(id)
		if err != nil {
			return err
		}
		all = append(all, auditEntries(svc)...)
		for _, dev := range svc.Devices() {
			if other, dup := where[dev]; dup {
				return fmt.Errorf("device %s has shards on %s and %s", dev, other, id)
			}
			where[dev] = id
		}
	}
	return checkAuditGapFree(all)
}

func (r *fleetRig) close() {
	if r.fc != nil {
		r.fc.Close()
	}
	for _, s := range r.servers {
		s.Close()
	}
	for _, st := range r.stores {
		st.Close()
	}
	os.RemoveAll(r.dir)
}
