// Package nodeproto implements TinMan's trusted-node service over a real
// network: a JSON request/response protocol carrying the operations a
// device needs from the node — cor registration and catalog, app binding,
// policy administration, audit queries, and the heart of the SSL/TCP
// offload path: resealing a marked record with cor plaintext under an
// injected session state (§3.2–§3.4).
//
// The in-process simulation (internal/core) exercises the full system
// including device-side tainting; this package is the deployable
// counterpart for the trusted-node half, served by cmd/tinman-node and
// consumed by cmd/tinman-device through ReconnectClient (one node) or
// FleetClient (a fleet).
package nodeproto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"tinman/internal/fastjson"
)

// Op names a protocol operation.
type Op string

// Protocol operations.
const (
	OpRegister Op = "register" // admin: initialize a cor (safe environment)
	OpGenerate Op = "generate" // admin: mint a fresh random cor
	OpCatalog  Op = "catalog"  // device view: descriptions + placeholders
	OpBind     Op = "bind"     // admin: bind an app hash to a cor
	OpRevoke   Op = "revoke"   // revoke a device (stolen phone)
	OpRestore  Op = "restore"  // restore a device
	OpReseal   Op = "reseal"   // payload replacement: reseal a record with cor
	OpDerive   Op = "derive"   // register a derived cor (hash of a password)
	OpAudit    Op = "audit"    // query the audit log
	OpPing     Op = "ping"     // liveness

	// Fleet routing and handoff (served by a node running behind a fleet
	// router; a standalone node answers who_owns with itself and serves
	// handoffs directly).
	OpWhoOwns       Op = "who_owns"       // which member owns a device's shard
	OpHandoffExport Op = "handoff_export" // detach + export a device shard
	OpHandoffImport Op = "handoff_import" // import a device shard export

	// OpDSMWarmup ships one background warm-up chunk of the speculative
	// pre-migration pipeline (dsm/warmup.go). Low priority by construction:
	// chunks are idempotent-safe (the ordered-epoch protocol drops anything
	// stale, falling back to the cold path), so clients fire them without
	// retry budgets and never block foreground requests on them.
	OpDSMWarmup Op = "dsm_warmup"

	// Control plane (internal/ctl): versioned policy administration. A node
	// wired to a fleet control plane fans these out to every member, exactly
	// like OpRevoke/OpRestore.
	OpPolicyInstall Op = "policy_install" // admin: install a policy snapshot (hot swap)
	OpPolicyVersion Op = "policy_version" // read-only: current policy version + hash
	OpSetClass      Op = "set_class"      // admin: reclassify a cor's sensitivity
)

// Request is the envelope every client message uses. Unused fields stay
// empty; the node validates per-op.
type Request struct {
	Op Op `json:"op"`
	// Seq correlates the response on a pipelined connection: the client
	// numbers its requests from 1 and the server echoes the value verbatim,
	// possibly out of order.
	Seq uint64 `json:"seq,omitempty"`
	// ReqID, when set on a non-idempotent op, makes it at-most-once: the
	// server records the first execution's result in a replay window keyed
	// by this ID and answers duplicates from the record. Retry layers set
	// it so an ambiguous transport failure — request sent, no reply — can
	// be replayed without double-executing. Empty disables dedup.
	ReqID string `json:"req_id,omitempty"`
	// Cor identity and content.
	CorID       string   `json:"cor_id,omitempty"`
	Plaintext   string   `json:"plaintext,omitempty"`
	Description string   `json:"description,omitempty"`
	Whitelist   []string `json:"whitelist,omitempty"`
	Length      int      `json:"length,omitempty"`
	ParentID    string   `json:"parent_id,omitempty"`
	// Caller identity.
	AppHash  string `json:"app_hash,omitempty"`
	DeviceID string `json:"device_id,omitempty"`
	// Reseal parameters.
	State     json.RawMessage `json:"state,omitempty"`
	Domain    string          `json:"domain,omitempty"`
	TargetIP  string          `json:"target_ip,omitempty"`
	RecordLen int             `json:"record_len,omitempty"`
	// TraceID/SpanID propagate the caller's obs span (hex, zero-padded) so
	// node-side spans join the device's trace. Empty when tracing is off.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
	// Shard carries a marshaled node.ShardExport for OpHandoffImport. It
	// travels only between trusted nodes (the export holds cor plaintext);
	// device-facing clients never set it.
	Shard json.RawMessage `json:"shard,omitempty"`
	// App names the installed app an OpDSMWarmup chunk belongs to (the
	// device half of the AppKey; DeviceID is the other half).
	App string `json:"app,omitempty"`
	// Chunk is the encoded dsm.WarmupChunk for OpDSMWarmup. Like a
	// migration, it carries cor IDs only — never plaintext.
	Chunk []byte `json:"chunk,omitempty"`
	// Class is the cor sensitivity class ("public", "sensitive",
	// "server-only") for OpRegister/OpGenerate/OpSetClass. Empty keeps the
	// default (sensitive).
	Class string `json:"class,omitempty"`
	// Policy carries a marshaled policy.Snapshot for OpPolicyInstall.
	Policy json.RawMessage `json:"policy,omitempty"`
}

// CatalogEntry is the device-visible cor metadata.
type CatalogEntry struct {
	ID          string `json:"id"`
	Placeholder string `json:"placeholder"`
	Description string `json:"description"`
	Bit         int    `json:"bit"`
	// Class is the cor's sensitivity class; empty means the default
	// (sensitive) on entries from pre-class servers.
	Class string `json:"class,omitempty"`
}

// AuditEntry mirrors audit.Entry for the wire.
type AuditEntry struct {
	Seq     uint64 `json:"seq"`
	Time    string `json:"time"`
	AppHash string `json:"app_hash"`
	CorID   string `json:"cor_id"`
	Device  string `json:"device"`
	Domain  string `json:"domain"`
	Outcome string `json:"outcome"`
	Detail  string `json:"detail"`
	// DeviceSeq is the per-device sequence minted by the owning shard; it
	// orders one device's entries across node handoffs (0 on old entries
	// and non-device entries).
	DeviceSeq uint64 `json:"device_seq,omitempty"`
	// PolicyVersion/PolicyHash identify the policy snapshot the entry's
	// decision was checked against (0/"" on pre-versioning entries).
	PolicyVersion uint64 `json:"policy_version,omitempty"`
	PolicyHash    string `json:"policy_hash,omitempty"`
}

// Response is the node's reply envelope.
type Response struct {
	OK bool `json:"ok"`
	// Seq echoes the request's correlation ID.
	Seq   uint64 `json:"seq,omitempty"`
	Error string `json:"error,omitempty"`
	// Denial is set (with Error) when policy refused the operation; it
	// carries the machine-readable reason.
	Denial string `json:"denial,omitempty"`
	// DenialCode is the stable numeric form of Denial: policy.Reason.Code()
	// biased by +1 so the zero value means "not a denial" and omitempty
	// keeps it off other responses. Clients decode the reason from it; the
	// text stays for humans.
	DenialCode int `json:"denial_code,omitempty"`
	// PolicyVersion/PolicyHash answer OpPolicyVersion and acknowledge
	// OpPolicyInstall with the stamp the engine now runs.
	PolicyVersion uint64 `json:"policy_version,omitempty"`
	PolicyHash    string `json:"policy_hash,omitempty"`
	// Catalog for OpCatalog.
	Catalog []CatalogEntry `json:"catalog,omitempty"`
	// Record is the resealed wire record for OpReseal.
	Record []byte `json:"record,omitempty"`
	// CorID echoes the affected cor (register/generate/derive).
	CorID string `json:"cor_id,omitempty"`
	// Audit entries for OpAudit.
	Audit []AuditEntry `json:"audit,omitempty"`
	// Owner names the member that owns the device's shard: the answer to
	// OpWhoOwns, and the redirect hint on a not-owner refusal — the client
	// resends the identical request (same ReqID) to that member.
	Owner string `json:"owner,omitempty"`
	// Shard is the marshaled node.ShardExport answering OpHandoffExport.
	Shard json.RawMessage `json:"shard,omitempty"`
}

// maxMessage bounds a single protocol message.
const maxMessage = 16 << 20

// maxPooled bounds the buffers kept in the pools; larger one-off messages
// (a big catalog, a long audit query) are allocated and dropped rather
// than pinning memory.
const maxPooled = 1 << 20

// writeBufPool recycles the marshal buffers WriteMessage frames into so a
// busy node does not allocate per request.
var writeBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBufPool recycles the body buffers ReadMessage decodes from.
// json.Unmarshal copies everything it stores (including json.RawMessage
// and []byte fields), so the buffer can be reused immediately after.
var readBufPool = sync.Pool{New: func() any {
	b := make([]byte, 4096)
	return &b
}}

// WriteMessage frames and writes one JSON message. The 4-byte length
// header and the body leave in a single Write, so a bufio.Writer or a raw
// conn both see one contiguous frame.
func WriteMessage(w io.Writer, v any) error {
	buf := writeBufPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooled {
			buf.Reset()
			writeBufPool.Put(buf)
		}
	}()
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0}) // header placeholder, patched below
	enc := json.NewEncoder(buf)
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("nodeproto: marshal: %v", err)
	}
	frame := buf.Bytes()
	body := len(frame) - 4
	if body > maxMessage {
		return fmt.Errorf("nodeproto: message of %d bytes exceeds limit", body)
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(body))
	_, err := w.Write(frame)
	return err
}

// ReadMessage reads one framed JSON message into v.
func ReadMessage(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxMessage {
		return fmt.Errorf("nodeproto: implausible message length %d", n)
	}
	bp := readBufPool.Get().(*[]byte)
	if cap(*bp) < int(n) {
		*bp = make([]byte, n)
	}
	body := (*bp)[:n]
	defer func() {
		if cap(*bp) <= maxPooled {
			readBufPool.Put(bp)
		}
	}()
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	// Protocol envelopes take the schema-specialized fast path (codec.go);
	// anything it does not fully understand — and any other type — goes
	// through the general single-scan decoder. The target is zeroed before
	// falling back so a partially-filled fast-path attempt cannot leak.
	switch t := v.(type) {
	case *Request:
		if decodeRequest(body, t) {
			return nil
		}
		*t = Request{}
	case *Response:
		if decodeResponse(body, t) {
			return nil
		}
		*t = Response{}
	}
	if err := fastjson.Unmarshal(body, v); err != nil {
		return fmt.Errorf("nodeproto: unmarshal: %v", err)
	}
	return nil
}
