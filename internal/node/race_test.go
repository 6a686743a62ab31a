package node

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"tinman/internal/audit"
)

// TestConcurrentDevices drives the service from several device goroutines at
// once — the scenario the wire transport creates with one goroutine per
// connection. Each device installs its own app instance, offloads repeatedly
// (exercising the apps map and the derivedSeq counter: each login's result
// is masked as a derived cor minted through the resolver's MaskID), reseals, arms and fires injections (the injections map), and
// reads the catalog, while a churn goroutine revokes and restores an
// unrelated device. Run under -race; the seed's simulation loop was
// single-threaded and hid these hazards.
func TestConcurrentDevices(t *testing.T) {
	ctx := context.Background()
	svc := New(Options{})

	const devices = 3
	const rounds = 5

	type devState struct {
		half *deviceHalf
		cor  string
	}
	states := make([]devState, devices)
	for i := range states {
		corID := fmt.Sprintf("pw-%d", i)
		deviceID := fmt.Sprintf("dev-%d", i)
		if _, err := svc.RegisterCor(ctx, corID, fmt.Sprintf("secret-%d!", i), "password", "bank.com"); err != nil {
			t.Fatal(err)
		}
		half := newDeviceHalf(t, svc, deviceID, "login", loginSrc)
		hash := half.install(t, svc, loginSrc)
		svc.BindApp(corID, hash)
		states[i] = devState{half: half, cor: corID}
	}

	var wg sync.WaitGroup
	errs := make(chan error, devices*4)
	for i := range states {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := states[i]
			state, _ := sessionState(t)
			for r := 0; r < rounds; r++ {
				// Offload round: MaskID mints a derived cor on the node.
				if _, err := st.half.login(t, svc, st.cor); err != nil {
					errs <- fmt.Errorf("dev-%d round %d offload: %w", i, r, err)
					return
				}
				// Reseal round.
				if _, err := svc.Reseal(ctx, ResealRequest{
					CorID: st.cor, AppHash: st.half.prog.Hash(), DeviceID: st.half.id,
					Domain: "bank.com", State: state,
				}); err != nil {
					errs <- fmt.Errorf("dev-%d round %d reseal: %w", i, r, err)
					return
				}
				// Injection round: arm and fire one flow per round.
				key := InjectionKey{
					ClientAddr: st.half.id, ClientPort: uint16(40000 + r),
					ServerAddr: "203.0.113.5", ServerPort: 443,
				}
				if err := svc.ArmInjection(ctx, InjectRequest{
					DeviceID: st.half.id, App: "login", CorID: st.cor,
					Domain: "bank.com", Key: key, State: state,
				}); err != nil {
					errs <- fmt.Errorf("dev-%d round %d arm: %w", i, r, err)
					return
				}
				if _, err := svc.ReplacePayload(ctx, key, 0); err != nil {
					errs <- fmt.Errorf("dev-%d round %d replace: %w", i, r, err)
					return
				}
				// Catalog and audit reads race the writers above.
				if _, err := svc.Catalog(ctx); err != nil {
					errs <- err
					return
				}
				if _, err := svc.AuditQuery(ctx, audit.Query{DeviceID: st.half.id}); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}

	// Revocation churn on a device no worker uses.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds*4; r++ {
			svc.Revoke("dev-ghost")
			svc.Restore("dev-ghost")
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := svc.Cors.Len(); got < devices*(1+rounds) {
		t.Fatalf("vault has %d cors, want at least %d (registered + derived)", got, devices*(1+rounds))
	}
}
