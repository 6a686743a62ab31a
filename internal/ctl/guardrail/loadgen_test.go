package guardrail_test

import (
	"encoding/json"
	"net"
	"testing"

	"tinman/internal/ctl/guardrail"
	"tinman/internal/nodeproto"
	"tinman/internal/obs"
	"tinman/internal/tlssim"
)

// TestGuardrailLoadgen is the CI guardrail run (`make guardrail`): a full
// loadgen drive against an instrumented node with every secret the node
// holds fingerprinted — the benchmark cor's plaintext and all four TLS
// session keys — must produce ZERO findings across spans, trace, metrics
// and audit output. Then a deliberately seeded leak proves the scanner
// actually fires: a zero-finding report from a broken scanner would be
// indistinguishable from a clean system.
func TestGuardrailLoadgen(t *testing.T) {
	tr := obs.New(obs.Options{})
	met := obs.NewMetrics()
	srv := nodeproto.NewServer()
	srv.SetObs(tr, met)
	state, err := nodeproto.PrepareThroughputServer(srv)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	// Fingerprint everything secret the run touches: the cor plaintext the
	// node unseals on every reseal, and the TLS key material inside the
	// session state shipped over the wire.
	sc := guardrail.New()
	sc.AddSecret("bench-pw-plaintext", []byte("hunter2-benchmark!"))
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

	res, err := nodeproto.RunThroughput(l.Addr().String(), state, nodeproto.ThroughputOptions{
		Workers:  4,
		Requests: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("loadgen errors: %v", res.FirstErr)
	}

	// The clean run: every exporter surface swept, nothing found.
	findings, err := sw.SweepOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("clean loadgen run leaked: %v", findings)
	}

	// The canary: seed the flight recorder with a span note carrying the
	// plaintext (modeling a redaction-gate bug) and demand the scanner
	// catches it — and names only that secret.
	leak := tr.StartSpan(obs.PhaseVaultOpen, obs.Note("hunter2-benchmark!"))
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
