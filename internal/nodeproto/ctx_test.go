package nodeproto

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"tinman/internal/node"
)

// TestContextPreCancelled: a dead context never reaches the wire, and the
// connection stays usable for the next caller.
func TestContextPreCancelled(t *testing.T) {
	c, _ := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.PingContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("PingContext = %v, want context.Canceled", err)
	}
	if _, err := c.CatalogContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("CatalogContext = %v, want context.Canceled", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after cancelled call: %v", err)
	}
}

// slowServer accepts one connection and answers requests in order, stalling
// on the first one so a client deadline can expire mid-flight.
func slowServer(t *testing.T, firstDelay time.Duration) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		first := true
		for {
			var req Request
			if err := ReadMessage(conn, &req); err != nil {
				return
			}
			if first {
				first = false
				time.Sleep(firstDelay)
			}
			if err := WriteMessage(conn, &Response{OK: true, Seq: req.Seq}); err != nil {
				return
			}
		}
	}()
	return l.Addr().String()
}

// TestContextDeadlineMidFlight: a deadline that expires while the request is
// on the wire returns promptly, the late response is discarded, and the
// connection keeps working.
func TestContextDeadlineMidFlight(t *testing.T) {
	// The slow server accepts one connection only: the deadline must not
	// cost the client its connection.
	c := dialTest(t, slowServer(t, 300*time.Millisecond))

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.PingContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("PingContext = %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 200*time.Millisecond {
		t.Fatalf("cancelled call blocked %v; should return at the deadline", waited)
	}
	// The stalled response for the first request is still in flight; the
	// next request must get its own reply, not the stale one.
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after deadline: %v", err)
	}
}

// TestWireDenialSentinels: a policy denial that crossed the wire still
// matches the node package's typed sentinels on the client side.
func TestWireDenialSentinels(t *testing.T) {
	c, s := testServer(t)
	register(t, s, "pw", "secret99", "good.com")
	if err := s.Svc.Revoke("dev1"); err != nil {
		t.Fatal(err)
	}
	device, _ := establishSession(t)
	_, err := c.Reseal("pw", device.Export(), "app", "dev1", "good.com", "", 0)
	if err == nil {
		t.Fatal("revoked device reseal accepted")
	}
	if !errors.Is(err, node.ErrDenied) {
		t.Fatalf("err = %v, does not match node.ErrDenied", err)
	}
	if !errors.Is(err, node.ErrRevoked) {
		t.Fatalf("err = %v, does not match node.ErrRevoked", err)
	}
	var de *DenialError
	if !errors.As(err, &de) || de.Reason != "device access revoked" {
		t.Fatalf("denial = %+v", err)
	}
}
