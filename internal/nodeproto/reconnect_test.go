package nodeproto

import (
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"tinman/internal/audit"
	"tinman/internal/fault"
	"tinman/internal/node"
)

// startServer serves svc (nil means a fresh service) on a loopback
// listener and returns it with its address. A positive readTimeout makes
// the server drop idle connections quickly, which restart tests rely on so
// Close does not wait out the default five-minute idle window.
func startServer(t *testing.T, svc *node.Service, readTimeout time.Duration) (*Server, string) {
	t.Helper()
	var s *Server
	if svc != nil {
		s = NewServerWith(svc)
	} else {
		s = NewServer()
	}
	if readTimeout > 0 {
		s.ReadTimeout = readTimeout
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return s, l.Addr().String()
}

// waitFor polls cond for up to 5s; failing that, the test dies with msg.
func waitFor(t *testing.T, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRequestIDDedup pins the at-most-once contract at the wire level: the
// same ReqID replays the recorded response instead of re-executing, while
// a fresh ReqID executes for real.
func TestRequestIDDedup(t *testing.T) {
	c, s := testServer(t)
	state, err := PrepareThroughputServer(s)
	if err != nil {
		t.Fatal(err)
	}
	reseal := func(reqID string) *Request {
		return &Request{Op: OpReseal, ReqID: reqID, CorID: benchCor, State: state,
			AppHash: "bench-app", DeviceID: "dev1", Domain: "bench.example"}
	}
	audited := func() int { return len(s.Svc.Audit.Find(audit.Query{DeviceID: "dev1"})) }
	first, err := c.Do(t.Context(), reseal("dup-1"))
	if err != nil {
		t.Fatal(err)
	}
	// The replay answers from the record: the original's sealed bytes, and
	// no second audit entry.
	again, err := c.Do(t.Context(), reseal("dup-1"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Record, first.Record) || audited() != 1 {
		t.Fatalf("replayed request re-executed: %d audit entries, record equal %v",
			audited(), bytes.Equal(again.Record, first.Record))
	}
	// Same operation under a fresh ID is a genuine second reseal.
	if _, err := c.Do(t.Context(), reseal("dup-2")); err != nil {
		t.Fatal(err)
	}
	if audited() != 2 {
		t.Fatalf("fresh ReqID did not execute: %d audit entries, want 2", audited())
	}
}

// TestReqIDsUniqueAcrossClientInstances pins that two client instances
// with the same stable ClientID (a device identity survives app restarts)
// never mint colliding ReqIDs: the server-side replay window outlives
// client processes — it travels with the device's shard — and a collision
// would serve the new run the old run's recorded responses.
func TestReqIDsUniqueAcrossClientInstances(t *testing.T) {
	_, addr := startServer(t, nil, 0)
	mint := func() string {
		rc := DialReconnect(addr, time.Second, ReconnectConfig{
			ClientID: "galaxy-nexus-1", Heartbeat: -1,
		})
		defer rc.Close()
		req := &Request{Op: OpReseal, DeviceID: "galaxy-nexus-1", CorID: "pw-" + t.Name()}
		rc.do(t.Context(), req) // fails (unknown cor); the minted ID is the point
		return req.ReqID
	}
	first, second := mint(), mint()
	if first == "" || second == "" {
		t.Fatalf("no ReqID minted: %q, %q", first, second)
	}
	if first == second {
		t.Fatalf("two client instances minted the same ReqID %q", first)
	}
}

// TestReconnectAcrossServerRestart kills the node's TCP server mid-life
// and brings a new one up (same service state, new port): the reconnect
// client must carry a request across the gap without manual intervention.
func TestReconnectAcrossServerRestart(t *testing.T) {
	svc := node.New(node.Options{})
	if _, err := svc.RegisterCor(t.Context(), "bank-pw", "hunter2!", "bank password"); err != nil {
		t.Fatal(err)
	}
	s1, addr1 := startServer(t, svc, 100*time.Millisecond)

	var addr atomic.Value
	addr.Store(addr1)
	rc := NewReconnectClient(ReconnectConfig{
		Dial:           func() (net.Conn, error) { return net.DialTimeout("tcp", addr.Load().(string), time.Second) },
		RequestTimeout: 2 * time.Second,
		Backoff:        fault.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		Heartbeat:      -1, // no prober: the test drives every request
	})
	defer rc.Close()

	if _, err := rc.Catalog(); err != nil {
		t.Fatal(err)
	}
	if rc.Reconnects() != 1 {
		t.Fatalf("Reconnects = %d after first use, want 1", rc.Reconnects())
	}

	// Restart: the old server (and its connections) go away entirely.
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	_, addr2 := startServer(t, svc, 0)
	addr.Store(addr2)

	cat, err := rc.Catalog()
	if err != nil {
		t.Fatalf("catalog across restart: %v", err)
	}
	if len(cat) != 1 || cat[0].ID != "bank-pw" {
		t.Fatalf("catalog after restart = %+v", cat)
	}
	if rc.Reconnects() < 2 {
		t.Fatalf("Reconnects = %d after restart, want >= 2", rc.Reconnects())
	}
	if rc.BreakerState() != fault.BreakerClosed {
		t.Fatalf("breaker %s after successful recovery, want closed", rc.BreakerState())
	}
}

// TestBreakerFastFailAndRecovery drives the breaker through its lifecycle:
// consecutive dial failures open it, open-state calls fail fast without
// touching the network, and after the cooldown a half-open probe closes it.
func TestBreakerFastFailAndRecovery(t *testing.T) {
	_, addr := startServer(t, nil, 0)
	var (
		down  atomic.Bool
		dials atomic.Int64
		now   atomic.Int64 // virtual breaker clock, ns
	)
	down.Store(true)
	rc := NewReconnectClient(ReconnectConfig{
		Dial: func() (net.Conn, error) {
			dials.Add(1)
			if down.Load() {
				return nil, errors.New("synthetic: node unreachable")
			}
			return net.DialTimeout("tcp", addr, time.Second)
		},
		RequestTimeout: time.Second,
		MaxAttempts:    1,
		Breaker: fault.BreakerConfig{
			Threshold: 2,
			Cooldown:  time.Second,
			Now:       func() time.Duration { return time.Duration(now.Load()) },
		},
		Heartbeat: -1,
	})
	defer rc.Close()

	for i := 0; i < 2; i++ {
		if err := rc.Ping(); !errors.Is(err, node.ErrNodeUnavailable) {
			t.Fatalf("ping %d = %v, want ErrNodeUnavailable", i, err)
		}
	}
	if rc.BreakerState() != fault.BreakerOpen {
		t.Fatalf("breaker %s after %d failures, want open", rc.BreakerState(), 2)
	}

	// Open breaker: calls are refused locally, no dial attempts (no retry
	// storm against a dead node).
	before := dials.Load()
	for i := 0; i < 5; i++ {
		if err := rc.Ping(); !errors.Is(err, node.ErrNodeUnavailable) {
			t.Fatalf("fast-fail ping = %v, want ErrNodeUnavailable", err)
		}
	}
	if d := dials.Load() - before; d != 0 {
		t.Fatalf("open breaker still dialed %d times", d)
	}

	// Node recovers; after the cooldown one half-open probe closes the
	// breaker and traffic flows again.
	down.Store(false)
	now.Store(int64(2 * time.Second))
	if err := rc.Ping(); err != nil {
		t.Fatalf("ping after recovery: %v", err)
	}
	if rc.BreakerState() != fault.BreakerClosed {
		t.Fatalf("breaker %s after successful probe, want closed", rc.BreakerState())
	}
}
