package ctl

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"tinman/internal/audit"
	"tinman/internal/cor"
	"tinman/internal/obs"
	"tinman/internal/policy"
)

// Routes registers the admin surface on mux — the single -admin address
// cmd/tinman-node serves:
//
//	GET  /metrics         Prometheus text format
//	GET  /spans           flight-recorder dump, JSON lines
//	GET  /trace           Chrome trace_event JSON
//	GET  /policy/version  current policy stamp
//	GET  /policy          current policy document (when Export is wired)
//	POST /policy          replace the whole policy document (body: policy.Snapshot
//	                      JSON; an explicit version must exceed the current one)
//	POST /revoke          revoke a device (body: {"device_id": "..."})
//	POST /restore         restore a device (body: {"device_id": "..."})
//	POST /class           reclassify a cor (body: {"cor_id": "...", "class": "..."})
//
// Reads never require the token — metrics scrapes must not carry
// credentials. Every POST handler checks the bearer token first; a missing
// or wrong token is answered 403 and recorded in the audit log, and no
// configured token refuses every mutation (fail closed). tr and m may be
// nil; their endpoints then serve empty output.
func (p *Plane) Routes(mux *http.ServeMux, tr *obs.Tracer, m *obs.Metrics) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if m != nil {
			m.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/jsonlines")
		if tr != nil {
			obs.WriteJSONLines(w, tr.Records())
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if tr != nil {
			obs.WriteChromeTrace(w, tr.Records())
		}
	})
	mux.HandleFunc("/policy/version", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		stamp := p.Stamp()
		writeJSON(w, struct {
			Version uint64 `json:"version"`
			Hash    string `json:"hash"`
		}{Version: stamp.Version, Hash: stamp.Hash})
	})
	mux.HandleFunc("/policy", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			p.handlePolicyInstall(w, r)
		case r.Method == http.MethodGet && p.cfg.Export != nil:
			writeJSON(w, p.cfg.Export())
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/revoke", p.deviceHandler("revoke", p.Revoke))
	mux.HandleFunc("/restore", p.deviceHandler("restore", p.Restore))
	mux.HandleFunc("/class", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if !p.authorize(w, r) {
			return
		}
		var body struct {
			CorID string `json:"cor_id"`
			Class string `json:"class"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.CorID == "" {
			http.Error(w, "body must be {\"cor_id\": ..., \"class\": ...}", http.StatusBadRequest)
			return
		}
		class, err := cor.ParseClass(body.Class)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := p.SetCorClass(r.Context(), body.CorID, class); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, map[string]string{"cor_id": body.CorID, "class": string(class)})
	})
}

// authorize checks the request's bearer token against the configured one,
// constant-time. A failure is answered 403 and audited: an unauthorized
// mutation attempt against the control plane is a security event, not
// noise. An empty configured token refuses everything (fail closed).
func (p *Plane) authorize(w http.ResponseWriter, r *http.Request) bool {
	got := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	if p.cfg.Token != "" &&
		subtle.ConstantTimeCompare([]byte(got), []byte(p.cfg.Token)) == 1 {
		return true
	}
	_ = p.auditf(audit.OutcomeDenied, "admin: unauthorized %s %s from %s",
		r.Method, r.URL.Path, r.RemoteAddr)
	p.logf("ctl: unauthorized %s %s from %s", r.Method, r.URL.Path, r.RemoteAddr)
	http.Error(w, "forbidden", http.StatusForbidden)
	return false
}

// handlePolicyInstall decodes, validates and pushes a snapshot. A partial
// fleet push (stamp assigned, some members unreachable) answers 207 with
// the stamp and the straggler detail, so the operator knows to retry.
func (p *Plane) handlePolicyInstall(w http.ResponseWriter, r *http.Request) {
	if !p.authorize(w, r) {
		return
	}
	snap := new(policy.Snapshot)
	if err := json.NewDecoder(r.Body).Decode(snap); err != nil {
		http.Error(w, fmt.Sprintf("undecodable snapshot: %v", err), http.StatusBadRequest)
		return
	}
	stamp, err := p.InstallPolicy(r.Context(), snap)
	if err != nil && stamp.Version == 0 {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out := struct {
		Version uint64 `json:"version"`
		Hash    string `json:"hash"`
		Partial string `json:"partial,omitempty"`
	}{Version: stamp.Version, Hash: stamp.Hash}
	if err != nil {
		out.Partial = err.Error()
		w.WriteHeader(http.StatusMultiStatus)
	}
	writeJSON(w, out)
}

// deviceHandler builds the POST handler shared by /revoke and /restore. A
// partial fleet push answers 207 with the straggler detail, as POST
// /policy does.
func (p *Plane) deviceHandler(what string, apply func(string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if !p.authorize(w, r) {
			return
		}
		var body struct {
			DeviceID string `json:"device_id"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.DeviceID == "" {
			http.Error(w, "body must be {\"device_id\": ...}", http.StatusBadRequest)
			return
		}
		out := map[string]string{"device_id": body.DeviceID, "action": what}
		if err := apply(body.DeviceID); err != nil {
			if !isPartial(err) {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			out["partial"] = err.Error()
			w.WriteHeader(http.StatusMultiStatus)
		}
		writeJSON(w, out)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
