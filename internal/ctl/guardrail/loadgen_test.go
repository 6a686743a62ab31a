package guardrail_test

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tinman/internal/ctl/guardrail"
	"tinman/internal/nodeproto"
	"tinman/internal/obs"
	"tinman/internal/tlssim"
)

// benchSecret is the plaintext of the cor that drive reseals.
const benchSecret = "hunter2-benchmark!"

// load is one drive's tally: successful catalogs and reseals, and failed
// operations with the first failure.
type load struct {
	catalogs, reseals, failed int
	firstErr                  error
	elapsed                   time.Duration
}

// wireCapture is a listener that keeps every byte the server writes to the
// connections it accepts: the node→device half of the device protocol.
type wireCapture struct {
	net.Listener
	mu  sync.Mutex
	out bytes.Buffer
}

func (w *wireCapture) Accept() (net.Conn, error) {
	c, err := w.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &capturedConn{Conn: c, w: w}, nil
}

// bytes returns a copy of everything captured so far.
func (w *wireCapture) bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.out.Bytes()...)
}

type capturedConn struct {
	net.Conn
	w *wireCapture
}

func (c *capturedConn) Write(p []byte) (int, error) {
	c.w.mu.Lock()
	c.w.out.Write(p)
	c.w.mu.Unlock()
	return c.Conn.Write(p)
}

// listen opens a loopback listener for drive.
func listen(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// drive registers the cor "bench-pw" (whitelisted for bench.example) on
// srv, serves srv on l and drives it through one ReconnectClient: workers
// device loops alternate reseal and catalog until ops operations have been
// attempted or, with ops 0, for d. It returns the tally and the device TLS
// session state the reseals carried. The caller closes srv.
func drive(t *testing.T, srv *nodeproto.Server, l net.Listener, workers, ops int, d time.Duration) (load, json.RawMessage) {
	t.Helper()
	if _, err := srv.Svc.RegisterCor(context.Background(), "bench-pw", benchSecret, "guardrail cor", "bench.example"); err != nil {
		t.Fatal(err)
	}
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	device, _, _, err := tlssim.Handshake(tlssim.ClientConfig{MinVersion: tlssim.TLS11}, tlssim.ServerConfig{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	state, err := json.Marshal(device.Export())
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	rc := nodeproto.DialReconnect(l.Addr().String(), 5*time.Second, nodeproto.ReconnectConfig{Heartbeat: -1})
	defer rc.Close()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		res      load
		started  atomic.Int64
		deadline = time.Now().Add(d)
		ctx      = context.Background()
	)
	more := func() bool {
		if ops > 0 {
			return started.Add(1) <= int64(ops)
		}
		return time.Now().Before(deadline)
	}
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(dev string) {
			defer wg.Done()
			var mine load
			for n := 0; more(); n++ {
				var err error
				if n%2 == 0 {
					if _, err = rc.ResealRawContext(ctx, "bench-pw", state, "bench-app", dev, "bench.example", "", 0); err == nil {
						mine.reseals++
					}
				} else if _, err = rc.CatalogContext(ctx); err == nil {
					mine.catalogs++
				}
				if err != nil {
					mine.failed++
					if mine.firstErr == nil {
						mine.firstErr = err
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			res.catalogs += mine.catalogs
			res.reseals += mine.reseals
			res.failed += mine.failed
			if res.firstErr == nil {
				res.firstErr = mine.firstErr
			}
		}(fmt.Sprintf("bench-dev-%d", w))
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res, state
}

// TestGuardrailLoadgen is the CI guardrail run (`make guardrail`): catalog
// and reseal traffic against an instrumented node with every secret the
// node holds fingerprinted — the cor's plaintext and all four TLS session
// keys — must produce ZERO findings across spans, trace, metrics and audit
// output, and across every byte the node wrote to its device connections.
// Then a deliberately seeded leak proves the scanner actually fires: a
// zero-finding report from a broken scanner would be indistinguishable
// from a clean system.
func TestGuardrailLoadgen(t *testing.T) {
	tr := obs.New(obs.Options{})
	met := obs.NewMetrics()
	srv := nodeproto.NewServer()
	srv.SetObs(tr, met)
	defer srv.Close()

	const workers, ops = 4, 400
	wire := &wireCapture{Listener: listen(t)}
	res, state := drive(t, srv, wire, workers, ops, 0)
	if res.failed > 0 {
		t.Fatalf("%d operations failed, first: %v", res.failed, res.firstErr)
	}
	if res.catalogs+res.reseals < ops || res.catalogs == 0 || res.reseals == 0 {
		t.Fatalf("drive covered %d catalogs and %d reseals, want %d operations with both kinds", res.catalogs, res.reseals, ops)
	}
	// Each reseal appends one audit entry and nothing else does, so the
	// sweep reads an audit log the traffic really wrote.
	if n := srv.Svc.Audit.Len(); n != res.reseals {
		t.Fatalf("audit holds %d entries, want one per reseal (%d)", n, res.reseals)
	}

	// Fingerprint everything secret the run touched: the cor plaintext the
	// node unseals on every reseal, and the TLS key material inside the
	// session state shipped over the wire.
	sc := guardrail.New()
	sc.AddSecret("bench-pw-plaintext", []byte(benchSecret))
	var sess tlssim.State
	if err := json.Unmarshal(state, &sess); err != nil {
		t.Fatal(err)
	}
	sc.AddSecret("tls-out-key", sess.Out.Key)
	sc.AddSecret("tls-out-mac", sess.Out.MACKey)
	sc.AddSecret("tls-in-key", sess.In.Key)
	sc.AddSecret("tls-in-mac", sess.In.MACKey)
	if sc.Secrets() != 5 {
		t.Fatalf("registered %d secrets, want 5", sc.Secrets())
	}
	sw := &guardrail.Sweeper{Scanner: sc, Tracer: tr, Metrics: met, Audit: srv.Svc.Audit}

	// The clean run: every exporter surface swept, nothing found.
	findings, err := sw.SweepOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("clean run leaked: %v", findings)
	}
	// The device protocol leaves the process too. Only the node→device
	// direction is swept: reseal requests carry the device's own TLS
	// session keys by design. A capture without the catalog placeholder
	// would make a zero here meaningless.
	out := wire.bytes()
	if placeholder := srv.Svc.Cors.Get("bench-pw").Placeholder; !bytes.Contains(out, []byte(placeholder)) {
		t.Fatalf("node→device capture (%d bytes) lacks the catalog placeholder %q", len(out), placeholder)
	}
	if found := sc.Scan("wire", out); len(found) != 0 {
		t.Fatalf("node→device protocol leaked: %v", found)
	}

	// The canary: seed the flight recorder with a span note carrying the
	// plaintext (modeling a redaction-gate bug) and demand the scanner
	// catches it — and names only that secret.
	leak := tr.StartSpan(obs.PhaseVaultOpen, obs.Note(benchSecret))
	leak.End()
	findings, err = sw.SweepOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("seeded canary not found: the guardrail is blind")
	}
	for _, f := range findings {
		if f.Secret != "bench-pw-plaintext" {
			t.Fatalf("unexpected secret %q in finding %v", f.Secret, f)
		}
	}
}
