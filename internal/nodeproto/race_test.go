package nodeproto

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentMixedOpsRace hammers one server with 8 concurrent clients
// doing mixed catalog/reseal/audit traffic while each worker registers and
// binds a cor in process and the main goroutine revokes and restores a
// device mid-run. Run under -race this exercises every server lock (policy
// RWMutex, sharded audit, cor store and its catalog cache, pipelined conn
// handling); afterwards it asserts the audit log lost nothing: one entry
// per reseal attempt and a gap-free monotonic Seq.
func TestConcurrentMixedOpsRace(t *testing.T) {
	srv := NewServer()
	state, err := PrepareThroughputServer(srv)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	addr := l.Addr().String()

	const (
		workers = 8
		iters   = 25
	)
	var (
		reseals  atomic.Int64
		wg       sync.WaitGroup
		errsMu   sync.Mutex
		firstErr error
	)
	report := func(err error) {
		errsMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errsMu.Unlock()
	}
	halfway := make(chan struct{})
	var halfOnce sync.Once

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := DialReconnect(addr, 5*time.Second, ReconnectConfig{Heartbeat: -1})
			defer c.Close()
			corID := fmt.Sprintf("race-cor-%d", w)
			if _, err := srv.Svc.RegisterCor(context.Background(), corID, "secret-race", "race cor", "bench.example"); err != nil {
				report(err)
				return
			}
			if err := srv.Svc.BindApp(corID, "race-app"); err != nil {
				report(err)
				return
			}
			// Two workers share each device ID so the mid-run revocation
			// hits several clients at once.
			dev := fmt.Sprintf("race-dev-%d", w%4)
			for i := 0; i < iters; i++ {
				if i == iters/2 {
					halfOnce.Do(func() { close(halfway) })
				}
				if _, err := c.Catalog(); err != nil {
					report(err)
					return
				}
				reseals.Add(1)
				if _, err := c.ResealRawContext(context.Background(), benchCor, state, "bench-app", dev, "bench.example", "", 0); err != nil {
					// Policy denials (the racing revocation) are expected;
					// anything else fails the test.
					if _, denied := IsDenied(err); !denied {
						report(err)
						return
					}
				}
				if i%5 == 4 {
					if _, err := c.AuditLog("", dev); err != nil {
						report(err)
						return
					}
				}
			}
		}(w)
	}

	// Mid-run: revoke one shared device, let denials accumulate, restore.
	<-halfway
	if err := srv.Svc.Revoke("race-dev-1"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if err := srv.Svc.Restore("race-dev-1"); err != nil {
		t.Fatal(err)
	}

	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// Every reseal attempt — allowed or denied — appends exactly one audit
	// entry; nothing else in this workload appends. The sharded log must
	// have lost none: count matches and Seq is 1..n with no gaps.
	entries := srv.Svc.Audit.Entries()
	want := int(reseals.Load())
	if len(entries) != want {
		t.Fatalf("audit entries = %d, want %d (one per reseal)", len(entries), want)
	}
	for i, e := range entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("audit seq gap: entries[%d].Seq = %d, want %d", i, e.Seq, i+1)
		}
	}
}
