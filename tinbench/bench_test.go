package main

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testKey(t *testing.T) *rsa.PrivateKey {
	t.Helper()
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestFixedSeedCountsRepeat builds the login workload twice from one seed
// and requires the counts a later change may claim against — VM
// instructions, trigger bytes, store records and the modelled login time —
// to repeat exactly over the same logins.
func TestFixedSeedCountsRepeat(t *testing.T) {
	key := testKey(t)
	counts := func(dir string) map[string]float64 {
		e := newEnv(7, dir, key)
		built, err := setupLogin(e, filepath.Join(dir, "rig"), false)
		if err != nil {
			t.Fatal(err)
		}
		r := built.(*loginRig)
		defer r.close()
		if err := r.warm(); err != nil {
			t.Fatal(err)
		}
		p, err := r.loop(func(i int) bool { return i < 8 })
		if err != nil {
			t.Fatal(err)
		}
		if p.failed != 0 || len(p.lat) != 8 {
			t.Fatalf("%d of %d logins failed: %v", p.failed, p.attempted, p.firstErr)
		}
		if err := r.check(); err != nil {
			t.Fatal(err)
		}
		return p.counts
	}
	a := counts(t.TempDir())
	b := counts(t.TempDir())
	for _, k := range []string{"vm.device_instrs", "dsm.trigger_bytes", "store.records_per_op", "sim_login_ms"} {
		if a[k] == 0 || a[k] != b[k] {
			t.Errorf("%s: %v then %v for one seed", k, a[k], b[k])
		}
	}
}

// TestFleetHandoffRace reproduces the handoff race the fleet workload
// avoids by pausing traffic around each drain→uncordon→rebalance cycle: a
// reseal that reaches the source member between DetachShard and the owner
// update in fleet.Handoff re-creates the device's shard there, with its
// audit sequence restarted. It is skipped unless TINBENCH_HANDOFF_RACE=1,
// and fails while the race exists:
//
//	cd tinbench && TINBENCH_HANDOFF_RACE=1 go test -run TestFleetHandoffRace -v .
func TestFleetHandoffRace(t *testing.T) {
	if os.Getenv("TINBENCH_HANDOFF_RACE") != "1" {
		t.Skip("set TINBENCH_HANDOFF_RACE=1 to run the handoff race reproducer")
	}
	dir := t.TempDir()
	built, err := setupFleet(newEnv(1, dir, testKey(t)), filepath.Join(dir, "fleet"))
	if err != nil {
		t.Fatal(err)
	}
	r := built.(*fleetRig)
	defer r.close()
	if err := r.warm(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(4 * time.Second)
	var (
		wg     sync.WaitGroup
		phases = make([]phase, len(r.sess))
	)
	for g := range r.sess {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			phases[g] = loop(ctx, r.seal, r.sess[g], r.gens[g], start, deadline, nil, nil)
		}(g)
	}
	for time.Now().Before(deadline) {
		if err := r.handoffCycle(ctx); err != nil {
			t.Errorf("cycle under load: %v", err)
			break
		}
	}
	wg.Wait()
	for _, p := range phases {
		if p.failed > 0 {
			t.Errorf("%d of %d reseals failed; first: %v", p.failed, p.attempted, p.firstErr)
		}
	}
	if err := r.check(); err != nil {
		t.Errorf("after cycles under load: %v", err)
	}
}
