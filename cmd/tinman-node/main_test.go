package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tinman/internal/ctl"
	"tinman/internal/nodeproto"
	"tinman/internal/obs"
	"tinman/internal/policy"
	"tinman/internal/store"
)

// boot runs the store-backed part of a tinman-node boot on dir with the
// given cors file contents and returns the server, or loadCors's error.
// The store is closed when the test ends or the boot fails.
func boot(t *testing.T, dir, cors string) (*nodeproto.Server, error) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Passphrase: "test-key"})
	if err != nil {
		t.Fatal(err)
	}
	srv := nodeproto.NewServer()
	if err := srv.Svc.AttachStore(context.Background(), st); err != nil {
		st.Close()
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cors.json")
	if err := os.WriteFile(path, []byte(cors), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := loadCors(srv, path); err != nil {
		st.Close()
		return nil, err
	}
	t.Cleanup(func() { st.Close() })
	return srv, nil
}

// adminToken gates the test control plane's mutations.
const adminToken = "test-admin-token"

// admin serves srv's control plane for the rest of the test.
func admin(t *testing.T, srv *nodeproto.Server) string {
	t.Helper()
	plane, err := ctl.New(ctl.Config{Target: srv.Svc, Stamp: srv.Svc.Policy.Stamp, Export: srv.Svc.Policy.Export, Audit: srv.Svc.Audit, Token: adminToken})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	plane.Routes(mux, obs.New(obs.Options{}), obs.NewMetrics())
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// getPolicy reads GET /policy from srv's control plane.
func getPolicy(t *testing.T, srv *nodeproto.Server) *policy.Snapshot {
	t.Helper()
	resp, err := http.Get(admin(t, srv) + "/policy")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	doc := new(policy.Snapshot)
	if err := json.NewDecoder(resp.Body).Decode(doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// policyBindings reads the bindings of GET /policy.
func policyBindings(t *testing.T, srv *nodeproto.Server) map[string][]string {
	t.Helper()
	return getPolicy(t, srv).Bindings
}

const firstCors = `[{"id": "demo-pw", "plaintext": "correct horse battery", "description": "demo password",
  "whitelist": ["demo-bank.example"], "bind": ["demo-app-hash-1"]}]`

// TestCorsEditsReachRecoveredNode restarts on one store with an edited
// -cors file: an added bind hash and a class change are applied to the
// recovered cor and survive the next restart, while a changed whitelist
// or plaintext fails the boot naming the cor and the field.
func TestCorsEditsReachRecoveredNode(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	first, err := boot(t, dir, firstCors)
	if err != nil {
		t.Fatal(err)
	}
	if got := policyBindings(t, first)["demo-pw"]; !slices.Equal(got, []string{"demo-app-hash-1"}) {
		t.Fatalf("first boot bindings %v", got)
	}

	edited := strings.Replace(firstCors, `"bind": ["demo-app-hash-1"]`,
		`"bind": ["demo-app-hash-1", "demo-app-hash-2"], "class": "public"`, 1)
	for i := 0; i < 2; i++ { // the second restart recovers the edits
		srv, err := boot(t, dir, edited)
		if err != nil {
			t.Fatalf("restart %d: %v", i, err)
		}
		got := policyBindings(t, srv)["demo-pw"]
		slices.Sort(got)
		if !slices.Equal(got, []string{"demo-app-hash-1", "demo-app-hash-2"}) {
			t.Fatalf("restart %d: GET /policy bindings %v, want both hashes", i, got)
		}
		if c := srv.Svc.Cors.Get("demo-pw").Class; c != "public" {
			t.Fatalf("restart %d: class %q, want public", i, c)
		}
	}

	for field, cors := range map[string]string{
		"whitelist": strings.Replace(firstCors, "demo-bank.example", "other-bank.example", 1),
		"plaintext": strings.Replace(firstCors, "correct horse battery", "correct horse battery!", 1),
	} {
		_, err := boot(t, dir, cors)
		if err == nil || !strings.Contains(err.Error(), "demo-pw") || !strings.Contains(err.Error(), field) {
			t.Errorf("changed %s: boot error %v, want one naming demo-pw and %s", field, err, field)
		}
		if err != nil && strings.Contains(err.Error(), "correct horse") {
			t.Errorf("changed %s: boot error leaks the plaintext: %v", field, err)
		}
	}
}

// TestCorsWhitelistFollowsEnforcedPolicy widens a cor's whitelist the way an
// operator does — GET /policy, edit, drop the version, POST /policy — and
// restarts on the same store: a -cors file naming the enforced whitelist
// boots, and one naming the old whitelist stops the boot with an error
// naming the cor and the field.
func TestCorsWhitelistFollowsEnforcedPolicy(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	first, err := boot(t, dir, firstCors)
	if err != nil {
		t.Fatal(err)
	}
	doc := getPolicy(t, first)
	doc.Version = 0
	doc.AllowDomains("demo-pw", []string{"demo-bank.example", "m.demo-bank.example"})
	body, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, admin(t, first)+"/policy", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+adminToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /policy: %s", resp.Status)
	}

	widened := strings.Replace(firstCors, `["demo-bank.example"]`, `["m.demo-bank.example", "demo-bank.example"]`, 1)
	if _, err := boot(t, dir, widened); err != nil {
		t.Fatalf("restart naming the enforced whitelist: %v", err)
	}
	_, err = boot(t, dir, firstCors)
	if err == nil || !strings.Contains(err.Error(), "demo-pw") || !strings.Contains(err.Error(), "whitelist") {
		t.Fatalf("restart naming the old whitelist: boot error %v, want one naming demo-pw and whitelist", err)
	}
}
