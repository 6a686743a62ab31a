// Command tinman-node runs the trusted-node service over real TCP: the cor
// vault, the policy engine, the audit log and the reseal (payload
// replacement) endpoint that devices call during SSL session injection.
//
// Usage:
//
//	tinman-node -listen :7443
//	tinman-node -listen :7443 -cors cors.json
//	tinman-node -listen :7443 -store /var/lib/tinman
//	tinman-node -listen :7443 -admin 127.0.0.1:7780
//
// With -store set the node runs on the crash-safe storage engine
// (internal/store): every vault mutation, audit append and policy change is
// WAL-logged and fsynced before it is acknowledged, and on boot the node
// recovers from the latest snapshot plus WAL replay — kill -9 at any point
// loses nothing that was acknowledged. Vault records are sealed at rest
// with the passphrase in TINMAN_STORE_KEY. Without -store the node keeps
// everything in memory. tinman-audit -store reads a store's audit log
// offline, and -json exports it as JSON lines.
//
// With -admin set the node also serves the control-plane endpoint, its
// only administration path: the device protocol carries no admin op. Reads
// need no credentials: GET /metrics (Prometheus text format), GET /spans
// (flight-recorder dump as JSON lines), GET /trace (Chrome trace_event JSON
// for chrome://tracing or Perfetto), GET /policy/version and GET /policy,
// which returns the enforced policy document for editing. Mutations —
// POST /policy, POST /revoke, POST /restore and POST /class — require the
// bearer token in TINMAN_ADMIN_TOKEN; with no token in the environment
// every mutation is refused (fail closed). Every policy change installs a
// whole document: POST /policy replaces it (an explicit "version" must
// exceed the enforced one; omit it to take the next), and /revoke and
// /restore edit the enforced one. In a document's "whitelist", a cor with
// no entry may be sent to any domain and an entry of [] is never sent.
// Exports pass through the obs redaction gate, so they never carry cor
// plaintext or vault key material — and the guardrail sweeper continuously
// re-verifies that: every vault plaintext is fingerprinted (raw, hex,
// base64) and every exporter surface plus the audit log and the store
// directory is swept for hits, which are logged and counted in
// guardrail_findings_total.
//
// The optional cors file registers records at boot, the one-time
// safe-environment setup of §2.3 (cmd/tinman-device/cors.json is the
// demo's). It is how cors reach a tinman-node; -store keeps them across
// restarts. An entry's whitelist becomes the cor's entry in the policy
// document (omitted: any domain; []: never sent). For a record the store
// already recovered, the file's added bind hashes and a changed class are
// applied, and a changed plaintext, or a whitelist other than the one the
// enforced policy document holds for the cor, stops the boot:
//
//	[
//	  {"id": "bank-pw", "plaintext": "hunter2!", "description": "bank",
//	   "whitelist": ["bank.example.com"], "bind": ["<app hash>"],
//	   "class": "sensitive"}
//	]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"tinman/internal/cor"
	"tinman/internal/ctl"
	"tinman/internal/ctl/guardrail"
	"tinman/internal/node"
	"tinman/internal/nodeproto"
	"tinman/internal/obs"
	"tinman/internal/store"
)

// corSpec mirrors one entry of the -cors file.
type corSpec struct {
	ID          string   `json:"id"`
	Plaintext   string   `json:"plaintext"`
	Description string   `json:"description"`
	Whitelist   []string `json:"whitelist"`
	// Bind lists app hashes allowed to use the cor.
	Bind []string `json:"bind"`
	// Class is the sensitivity class: "public", "sensitive" (the default)
	// or "server-only" (never ships in DSM payloads).
	Class string `json:"class"`
}

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7443", "address to listen on")
		corsFile = flag.String("cors", "", "JSON file of cors to pre-register")
		storeDir = flag.String("store", "", "crash-safe store directory: WAL+snapshot persistence for vault, audit and policy (passphrase in TINMAN_STORE_KEY)")
		admin    = flag.String("admin", "", "serve observability on this address (/metrics, /spans, /trace)")
		quiet    = flag.Bool("quiet", false, "suppress operational logging")
	)
	flag.Parse()

	// With -admin the whole stack is built instrumented: service-level
	// collectors (vault opens, per-reason policy denials) attach at
	// construction, transport-level ones via SetObs.
	srv := nodeproto.NewServer()
	if *admin != "" {
		tr := obs.New(obs.Options{})
		met := obs.NewMetrics()
		srv = nodeproto.NewServerWith(node.New(node.Options{Metrics: met}))
		srv.SetObs(tr, met)
		if err := serveAdmin(srv, tr, met, *admin, *storeDir); err != nil {
			fmt.Fprintf(os.Stderr, "tinman-node: admin: %v\n", err)
			os.Exit(1)
		}
	}
	if !*quiet {
		srv.Logf = log.Printf
	}

	if *storeDir != "" {
		pass := os.Getenv("TINMAN_STORE_KEY")
		if pass == "" {
			fmt.Fprintln(os.Stderr, "tinman-node: -store requires TINMAN_STORE_KEY in the environment")
			os.Exit(1)
		}
		st, err := store.Open(store.Options{Dir: *storeDir, Passphrase: pass})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tinman-node: opening store: %v\n", err)
			os.Exit(1)
		}
		defer st.Close()
		if err := srv.Svc.AttachStore(context.Background(), st); err != nil {
			fmt.Fprintf(os.Stderr, "tinman-node: attaching store: %v\n", err)
			os.Exit(1)
		}
		stats := st.Stats()
		log.Printf("tinman-node: store recovered (%d cors, %d audit entries, LSN %d, snapshot LSN %d)",
			srv.Svc.Cors.Len(), srv.Svc.Audit.Len(), stats.LastLSN, stats.SnapLSN)
	}

	if *corsFile != "" {
		if err := loadCors(srv, *corsFile); err != nil {
			fmt.Fprintf(os.Stderr, "tinman-node: %v\n", err)
			os.Exit(1)
		}
	}

	if err := srv.ListenAndServe(*listen); err != nil {
		fmt.Fprintf(os.Stderr, "tinman-node: %v\n", err)
		os.Exit(1)
	}
}

// serveAdmin exposes the control plane over HTTP: the open observability
// and policy-read endpoints plus the token-gated mutations. It binds the listener synchronously (so a bad address fails at
// startup), serves in the background, and starts the guardrail sweeper.
func serveAdmin(srv *nodeproto.Server, tr *obs.Tracer, m *obs.Metrics, addr, storeDir string) error {
	token := os.Getenv("TINMAN_ADMIN_TOKEN")
	plane, err := ctl.New(ctl.Config{
		Target: srv.Svc,
		Stamp:  srv.Svc.Policy.Stamp,
		Export: srv.Svc.Policy.Export,
		Audit:  srv.Svc.Audit,
		Token:  token,
		Logf:   log.Printf,
	})
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	plane.Routes(mux, tr, m)

	hs := &http.Server{Addr: addr, Handler: mux}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("tinman-node: control plane on http://%s (/metrics /spans /trace /policy /revoke)", ln.Addr())
	if token == "" {
		log.Printf("tinman-node: TINMAN_ADMIN_TOKEN not set; mutating admin endpoints disabled")
	}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("tinman-node: admin server: %v", err)
		}
	}()
	startGuardrail(srv, tr, m, storeDir)
	return nil
}

// guardrailInterval paces the background leak sweep: frequent enough that
// a leak is caught within seconds, cheap enough (string scans over bounded
// render buffers) to be noise next to request handling.
const guardrailInterval = 5 * time.Second

// startGuardrail runs the leak scanner in the background: every vault
// plaintext is fingerprinted before each sweep (so cors registered at
// runtime are covered), and every exporter surface plus the audit log and
// the store directory is swept. A finding is a redaction failure — it is
// logged loudly and counted in guardrail_findings_total.
func startGuardrail(srv *nodeproto.Server, tr *obs.Tracer, m *obs.Metrics, storeDir string) {
	sc := guardrail.New()
	sw := &guardrail.Sweeper{
		Scanner:  sc,
		Tracer:   tr,
		Metrics:  m,
		Audit:    srv.Svc.Audit,
		Findings: m.Counter("guardrail_findings_total"),
	}
	if storeDir != "" {
		sw.Dirs = []string{storeDir}
	}
	go func() {
		for {
			time.Sleep(guardrailInterval)
			for _, rec := range srv.Svc.Cors.List() {
				sc.AddSecret(rec.ID, []byte(rec.Plaintext))
			}
			findings, err := sw.SweepOnce()
			if err != nil {
				log.Printf("tinman-node: guardrail sweep: %v", err)
				continue
			}
			for _, f := range findings {
				log.Printf("tinman-node: GUARDRAIL: %s", f)
			}
		}
	}()
}

func loadCors(srv *nodeproto.Server, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var specs []corSpec
	if err := json.Unmarshal(data, &specs); err != nil {
		return fmt.Errorf("parsing %s: %v", path, err)
	}
	for _, sp := range specs {
		// A record the durable store already recovered is reconciled with
		// its entry, so a -cors file stays usable across restarts.
		if rec := srv.Svc.Cors.Get(sp.ID); rec != nil {
			if err := reconcileCor(srv.Svc, rec, sp); err != nil {
				return err
			}
			continue
		}
		// Registration goes through the Service so an attached store logs it.
		rec, err := srv.Svc.RegisterCor(context.Background(), sp.ID, sp.Plaintext, sp.Description, sp.Whitelist...)
		if err != nil {
			return err
		}
		if sp.Class != "" {
			class, err := cor.ParseClass(sp.Class)
			if err != nil {
				return fmt.Errorf("cor %s: %v", sp.ID, err)
			}
			if err := srv.Svc.SetCorClass(context.Background(), rec.ID, class); err != nil {
				return err
			}
		}
		for _, h := range sp.Bind {
			if err := srv.Svc.BindApp(rec.ID, h); err != nil {
				return err
			}
		}
		log.Printf("tinman-node: pre-registered cor %s", rec.ID)
	}
	return nil
}

// reconcileCor applies a -cors entry to a cor the store recovered. Bind
// hashes the enforced policy lacks are bound, and a class the entry names
// that differs from the recovered one is set; both are durable Service
// calls. A plaintext differing from the recovered record, or a whitelist
// differing from the cor's entry in the enforced policy document (an
// omitted whitelist matches no entry), stops the boot: the file must not
// silently disagree with what the node enforces.
func reconcileCor(svc *node.Service, rec *cor.Record, sp corSpec) error {
	if sp.Plaintext != rec.Plaintext {
		return fmt.Errorf("cor %s: plaintext differs from the recovered record", sp.ID)
	}
	doc := svc.Policy.Export()
	if wl, ok := doc.Whitelist[rec.ID]; ok != (sp.Whitelist != nil) || !sameDomains(sp.Whitelist, wl) {
		return fmt.Errorf("cor %s: whitelist %s differs from the enforced policy's %s",
			sp.ID, whitelistText(sp.Whitelist, sp.Whitelist != nil), whitelistText(wl, ok))
	}
	var changes []string
	if sp.Class != "" {
		class, err := cor.ParseClass(sp.Class)
		if err != nil {
			return fmt.Errorf("cor %s: %v", sp.ID, err)
		}
		if class != rec.Class {
			if err := svc.SetCorClass(context.Background(), rec.ID, class); err != nil {
				return err
			}
			changes = append(changes, "class "+sp.Class)
		}
	}
	bound := doc.Bindings[rec.ID]
	for _, h := range sp.Bind {
		if slices.Contains(bound, h) {
			continue
		}
		if err := svc.BindApp(rec.ID, h); err != nil {
			return err
		}
		bound = append(bound, h)
		changes = append(changes, "bind "+h)
	}
	if len(changes) == 0 {
		log.Printf("tinman-node: cor %s already recovered, unchanged", rec.ID)
	} else {
		log.Printf("tinman-node: cor %s already recovered, applied %s", rec.ID, strings.Join(changes, ", "))
	}
	return nil
}

// whitelistText renders a whitelist, or its absence, which lets the cor
// go to any domain.
func whitelistText(wl []string, set bool) string {
	if !set {
		return "none (any domain)"
	}
	return fmt.Sprint(wl)
}

// sameDomains reports whether two whitelists name the same domains.
func sameDomains(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(slices.Compact(a), slices.Compact(b))
}
