package ctl_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"tinman/internal/audit"
	"tinman/internal/cor"
	"tinman/internal/ctl"
	"tinman/internal/fault"
	"tinman/internal/fleet"
	"tinman/internal/node"
	"tinman/internal/policy"
	"tinman/internal/store"
)

const adminToken = "test-admin-token"

// newPlane builds a Plane over a fresh standalone node.Service with the
// benchmark cor registered, served through httptest.
func newPlane(t *testing.T) (*node.Service, *httptest.Server) {
	t.Helper()
	svc := node.New(node.Options{MalwareSeed: -1})
	if _, err := svc.RegisterCor(context.Background(), "pw", "hunter2!", "password", "bank.com"); err != nil {
		t.Fatal(err)
	}
	p, err := ctl.New(ctl.Config{
		Target: svc,
		Stamp:  svc.Policy.Stamp,
		Export: svc.Policy.Export,
		Audit:  svc.AuditAdmin,
		Token:  adminToken,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	p.Routes(mux, nil, nil)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return svc, ts
}

func post(t *testing.T, url, token, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestAdminAuth: mutations without the bearer token are refused with 403
// AND recorded in the audit log; the right token goes through, and POST
// /class applies a known class and refuses an unknown one.
func TestAdminAuth(t *testing.T) {
	svc, ts := newPlane(t)

	for _, token := range []string{"", "wrong-token"} {
		resp := post(t, ts.URL+"/revoke", token, `{"device_id":"phone-1"}`)
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("token %q: status %d, want 403", token, resp.StatusCode)
		}
	}
	// The revocation must NOT have happened.
	if err := svc.Policy.Check(policy.Access{CorID: "pw", DeviceID: "phone-1"}); err != nil {
		t.Fatalf("unauthorized revoke took effect: %v", err)
	}
	// Both attempts are audit entries with a denied outcome.
	denied := 0
	for _, e := range svc.Audit.Entries() {
		if e.Outcome == audit.OutcomeDenied && strings.Contains(e.Detail, "unauthorized") {
			denied++
		}
	}
	if denied != 2 {
		t.Fatalf("unauthorized attempts audited %d times, want 2", denied)
	}

	// The real token works and is audited as allowed.
	resp := post(t, ts.URL+"/revoke", adminToken, `{"device_id":"phone-1"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authorized revoke: status %d", resp.StatusCode)
	}
	if err := svc.Policy.Check(policy.Access{CorID: "pw", DeviceID: "phone-1"}); err == nil {
		t.Fatal("device not revoked after authorized call")
	}
	resp = post(t, ts.URL+"/restore", adminToken, `{"device_id":"phone-1"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: status %d", resp.StatusCode)
	}
	if resp := post(t, ts.URL+"/class", adminToken, `{"cor_id":"pw","class":"bogus"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown class: status %d, want 400", resp.StatusCode)
	}
	if resp := post(t, ts.URL+"/class", adminToken, `{"cor_id":"pw","class":"server-only"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("reclassify: status %d", resp.StatusCode)
	}
	if got := svc.Cors.Get("pw").Class; got != cor.ClassServerOnly {
		t.Fatalf("class after POST /class = %q, want server-only", got)
	}
}

// TestFailClosedWithoutToken: a Plane configured with an empty token
// refuses every mutation, even with an empty bearer header.
func TestFailClosedWithoutToken(t *testing.T) {
	svc := node.New(node.Options{MalwareSeed: -1})
	p, err := ctl.New(ctl.Config{Target: svc, Stamp: svc.Policy.Stamp})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	p.Routes(mux, nil, nil)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	resp := post(t, ts.URL+"/revoke", "", `{"device_id":"d"}`)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("no-token plane accepted a mutation: %d", resp.StatusCode)
	}
}

// TestPolicyHotSwapHTTP installs a snapshot over HTTP and checks the
// engine, the version endpoint and the exported document all agree.
func TestPolicyHotSwapHTTP(t *testing.T) {
	svc, ts := newPlane(t)

	snap := `{"whitelist":{"pw":["bank.com"]},"revoked":["stolen-1"]}`
	resp := post(t, ts.URL+"/policy", adminToken, snap)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("install: status %d", resp.StatusCode)
	}
	var out struct {
		Version uint64 `json:"version"`
		Hash    string `json:"hash"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Version == 0 || out.Hash == "" {
		t.Fatalf("empty stamp: %+v", out)
	}
	if got := svc.Policy.Stamp(); got.Version != out.Version || got.Hash != out.Hash {
		t.Fatalf("engine at %+v, HTTP reported %+v", got, out)
	}
	if err := svc.Policy.Check(policy.Access{CorID: "pw", DeviceID: "stolen-1"}); err == nil {
		t.Fatal("installed revocation not enforced")
	}

	// GET /policy/version agrees.
	vresp, err := http.Get(ts.URL + "/policy/version")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	var ver struct {
		Version uint64 `json:"version"`
		Hash    string `json:"hash"`
	}
	if err := json.NewDecoder(vresp.Body).Decode(&ver); err != nil {
		t.Fatal(err)
	}
	if ver.Version != out.Version || ver.Hash != out.Hash {
		t.Fatalf("/policy/version = %+v, want %+v", ver, out)
	}

	// GET /policy returns the document (read-only, no token needed).
	dresp, err := http.Get(ts.URL + "/policy")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var doc policy.Snapshot
	if err := json.NewDecoder(dresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Revoked) != 1 || doc.Revoked[0] != "stolen-1" {
		t.Fatalf("exported document missing revocation: %+v", doc)
	}

	// An invalid snapshot is rejected wholesale.
	bad := post(t, ts.URL+"/policy", adminToken, `{"rates":{"pw":{"max":-3,"per":0}}}`)
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid snapshot: status %d, want 400", bad.StatusCode)
	}
}

// TestConsecutiveSwapsNoDrops is the acceptance criterion: 120 consecutive
// hot swaps over HTTP while concurrent devices hammer policy checks; every
// check must succeed (the whitelisted access stays allowed in every
// version) and the observed stamp versions must be monotonic per checker.
func TestConsecutiveSwapsNoDrops(t *testing.T) {
	svc, ts := newPlane(t)

	const checkers = 8
	stop := make(chan struct{})
	errs := make(chan error, checkers)
	var wg sync.WaitGroup
	for i := 0; i < checkers; i++ {
		wg.Add(1)
		go func(dev int) {
			defer wg.Done()
			var lastVer uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				stamp, err := svc.Policy.CheckStamped(policy.Access{
					CorID: "pw", DeviceID: fmt.Sprintf("dev-%d", dev), Domain: "bank.com", Send: true,
				})
				if err != nil {
					errs <- fmt.Errorf("dev-%d: dropped check: %w", dev, err)
					return
				}
				if stamp.Version < lastVer {
					errs <- fmt.Errorf("dev-%d: stamp went backwards %d -> %d", dev, lastVer, stamp.Version)
					return
				}
				lastVer = stamp.Version
				// Yield so the spinning checkers don't starve the HTTP
				// server of run queue slots on small GOMAXPROCS.
				runtime.Gosched()
			}
		}(i)
	}

	var lastVersion uint64
	for i := 0; i < 120; i++ {
		// Every version keeps pw->bank.com allowed; the revoked set churns.
		snap := fmt.Sprintf(`{"whitelist":{"pw":["bank.com"]},"revoked":["swap-dev-%d"]}`, i)
		resp := post(t, ts.URL+"/policy", adminToken, snap)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("swap %d: status %d", i, resp.StatusCode)
		}
		var out struct {
			Version uint64 `json:"version"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if out.Version <= lastVersion {
			t.Fatalf("swap %d: version %d not monotonic after %d", i, out.Version, lastVersion)
		}
		lastVersion = out.Version
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPolicyRecoveredFromStore: a node restarted from its durable store
// comes back with the last accepted policy version and hash.
func TestPolicyRecoveredFromStore(t *testing.T) {
	dir := t.TempDir()
	sealer, err := cor.NewSealer("ctl-test-pass", bytes.Repeat([]byte{0x5a}, cor.SaltLen))
	if err != nil {
		t.Fatal(err)
	}
	open := func() (*node.Service, *store.Store) {
		st, err := store.Open(store.Options{Dir: dir, Sealer: sealer})
		if err != nil {
			t.Fatal(err)
		}
		svc := node.New(node.Options{MalwareSeed: -1})
		if err := svc.AttachStore(context.Background(), st); err != nil {
			t.Fatal(err)
		}
		return svc, st
	}

	svc, st := open()
	if _, err := svc.RegisterCor(context.Background(), "pw", "hunter2!", "password", "bank.com"); err != nil {
		t.Fatal(err)
	}
	p, err := ctl.New(ctl.Config{Target: svc, Stamp: svc.Policy.Stamp, Token: adminToken})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	p.Routes(mux, nil, nil)
	ts := httptest.NewServer(mux)
	resp := post(t, ts.URL+"/policy", adminToken, `{"whitelist":{"pw":["bank.com"]},"revoked":["gone-1"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("install: status %d", resp.StatusCode)
	}
	want := svc.Policy.Stamp()
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	svc2, st2 := open()
	defer st2.Close()
	got := svc2.Policy.Stamp()
	if got.Version != want.Version || got.Hash != want.Hash {
		t.Fatalf("recovered stamp %+v, want %+v", got, want)
	}
	if err := svc2.Policy.Check(policy.Access{CorID: "pw", DeviceID: "gone-1"}); err == nil {
		t.Fatal("recovered policy does not enforce the revocation")
	}
}

// TestAdminAuditRecoveredFromStore kills a store-backed node after an
// accepted /revoke, a refused 403 and a reseal the revocation denies: the
// restarted node recovers all three audit entries, with a gap-free Seq.
func TestAdminAuditRecoveredFromStore(t *testing.T) {
	ctx := context.Background()
	fs := fault.NewCrashFS(1)
	sealer, err := cor.NewSealer("ctl-test-pass", bytes.Repeat([]byte{0x5a}, cor.SaltLen))
	if err != nil {
		t.Fatal(err)
	}
	open := func() *node.Service {
		st, err := store.Open(store.Options{Dir: "store", FS: fs, Sealer: sealer})
		if err != nil {
			t.Fatal(err)
		}
		svc := node.New(node.Options{MalwareSeed: -1})
		if err := svc.AttachStore(ctx, st); err != nil {
			t.Fatal(err)
		}
		return svc
	}

	svc := open()
	if _, err := svc.RegisterCor(ctx, "pw", "hunter2!", "password", "bank.com"); err != nil {
		t.Fatal(err)
	}
	p, err := ctl.New(ctl.Config{Target: svc, Stamp: svc.Policy.Stamp, Audit: svc.AuditAdmin, Token: adminToken})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	p.Routes(mux, nil, nil)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	if resp := post(t, ts.URL+"/revoke", adminToken, `{"device_id":"stolen"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("authorized revoke: status %d", resp.StatusCode)
	}
	if resp := post(t, ts.URL+"/revoke", "wrong-token", `{"device_id":"phone-1"}`); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unauthorized revoke: status %d", resp.StatusCode)
	}
	if _, err := svc.Reseal(ctx, node.ResealRequest{CorID: "pw", AppHash: "app", DeviceID: "stolen", Domain: "bank.com"}); !errors.Is(err, policy.ErrDenied) {
		t.Fatalf("reseal for a revoked device: %v, want a denial", err)
	}
	want := svc.Audit.Entries()
	if len(want) != 3 {
		t.Fatalf("live log holds %d entries, want 3", len(want))
	}

	fs.CrashNow()
	fs.Restart()
	got := open().Audit.Entries()
	if len(got) != len(want) {
		t.Fatalf("recovered %d audit entries, want %d: %v", len(got), len(want), got)
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) || e.Detail != want[i].Detail {
			t.Fatalf("recovered entry %d = Seq %d %q, want Seq %d %q", i, e.Seq, e.Detail, i+1, want[i].Detail)
		}
	}
}

// TestPartialRevokeAnswers207 puts a two-member fleet behind the plane
// with one member down. A revocation then holds on the reachable member
// only, so /revoke and /restore answer 207 with the straggler named — as
// POST /policy does — and each is audited; a push nobody could apply would
// have been a 400.
func TestPartialRevokeAnswers207(t *testing.T) {
	f, err := fleet.New(fleet.Config{MemberIDs: []string{"node-a", "node-b"},
		NodeOptions: node.Options{MalwareSeed: -1}})
	if err != nil {
		t.Fatal(err)
	}
	up, err := f.MemberService("node-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Crash("node-b"); err != nil {
		t.Fatal(err)
	}
	log := audit.NewLog(nil)
	record := func(outcome audit.Outcome, detail string) error {
		log.AppendEntry(audit.Entry{Outcome: outcome, Detail: detail})
		return nil
	}
	p, err := ctl.New(ctl.Config{Target: f, Stamp: up.Policy.Stamp, Audit: record, Token: adminToken})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	p.Routes(mux, nil, nil)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	for _, action := range []string{"revoke", "restore"} {
		resp := post(t, ts.URL+"/"+action, adminToken, `{"device_id":"phone-1"}`)
		if resp.StatusCode != http.StatusMultiStatus {
			t.Fatalf("%s with a member down: status %d, want 207", action, resp.StatusCode)
		}
		var body struct {
			Action  string `json:"action"`
			Partial string `json:"partial"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Action != action || !strings.Contains(body.Partial, "node-b") {
			t.Fatalf("%s with a member down: body %+v, want the straggler named", action, body)
		}
		revoked := up.Policy.Check(policy.Access{DeviceID: "phone-1"}) != nil
		if revoked != (action == "revoke") {
			t.Fatalf("after %s the reachable member has phone-1 revoked = %v", action, revoked)
		}
	}
	var audited []string
	for _, e := range log.Entries() {
		audited = append(audited, e.Detail)
	}
	if want := []string{"admin: device phone-1 revoked", "admin: device phone-1 restored"}; !slices.Equal(audited, want) {
		t.Fatalf("audit entries %q, want %q", audited, want)
	}
}
