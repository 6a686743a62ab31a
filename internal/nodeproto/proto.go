// Package nodeproto is TinMan's one device↔node control protocol: a
// length-prefixed JSON request/response envelope, optionally followed by a
// raw binary body, carrying exactly the operations a device needs from its
// trusted node — liveness, the cor catalog, audit queries, fleet routing
// (who_owns), the DSM offload path (app install, warm-up chunks,
// migrations; §3.1) and the SSL/TCP offload path (session injection and
// resealing a marked record with cor plaintext; §3.2–§3.4). No message
// carries cor plaintext, a policy document or a shard export: cors are
// registered at node boot (tinman-node -cors), policy, revocation and
// classes go through the token-gated admin plane (internal/ctl), and
// shards move between fleet members in process (fleet.Handoff).
//
// Server's dispatch is the only code that turns a control request into
// node.Service calls. Real TCP reaches it through Server.Serve, consumed by
// cmd/tinman-device through ReconnectClient (one node) or FleetClient (a
// fleet); the in-process simulation (internal/core) splits the same frames
// out of its simulated TCP stream with FrameLen and hands each request to
// Server.Dispatch on the virtual clock.
package nodeproto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"tinman/internal/fastjson"
	"tinman/internal/node"
)

// Op names a protocol operation.
type Op string

// Protocol operations: the complete set a device speaks.
const (
	OpPing    Op = "ping"     // liveness
	OpCatalog Op = "catalog"  // device view: descriptions + placeholders
	OpAudit   Op = "audit"    // query the audit log
	OpWhoOwns Op = "who_owns" // which fleet member owns a device's shard

	// OpDSMWarmup ships one background warm-up chunk of the speculative
	// pre-migration pipeline (dsm/warmup.go). Low priority by construction:
	// chunks are idempotent-safe (the ordered-epoch protocol drops anything
	// stale, falling back to the cold path), so clients fire them without
	// retry budgets and never block foreground requests on them.
	OpDSMWarmup Op = "dsm_warmup"

	// The device-keyed ops: payload replacement (§3.2–§3.4), the DSM
	// offload path (§3.1) and SSL session injection (§3.2). Each acts on
	// one device's shard: it requires a device ID, dedups in the shard's
	// replay window and a fleet member gates it on ownership.
	OpReseal  Op = "reseal"  // payload replacement: reseal a record with cor
	OpInstall Op = "install" // ship an app's source (Body) for node-side hosting
	OpOffload Op = "offload" // run an encoded dsm.Migration (Body) on the node
	OpInject  Op = "inject"  // arm payload replacement for one TLS flow
)

// Request is the envelope every client message uses. Unused fields stay
// empty; the node validates per-op.
type Request struct {
	Op Op `json:"op"`
	// Seq correlates the response on a pipelined connection: the client
	// numbers its requests from 1 and the server echoes the value verbatim,
	// possibly out of order.
	Seq uint64 `json:"seq,omitempty"`
	// ReqID, when set on a device-keyed op, makes it at-most-once: the
	// server records the first execution's result in the device shard's
	// replay window keyed by this ID and answers duplicates from the record. Retry layers set
	// it so an ambiguous transport failure — request sent, no reply — can
	// be replayed without double-executing. Empty disables dedup.
	ReqID string `json:"req_id,omitempty"`
	// CorID names the cor a reseal, injection or audit query concerns.
	CorID string `json:"cor_id,omitempty"`
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
	// App names the installed app an install, offload, inject or warm-up
	// request concerns (the device half of the AppKey; DeviceID is the
	// other half).
	App string `json:"app,omitempty"`
	// ClientAddr, ClientPort and ServerPort complete the TLS flow an
	// OpInject arms (TargetIP is the server address).
	ClientAddr string `json:"client_addr,omitempty"`
	ClientPort int    `json:"client_port,omitempty"`
	ServerPort int    `json:"server_port,omitempty"`
	// Body travels as the frame's raw binary body, not in the JSON head:
	// the app source for OpInstall, the encoded dsm.Migration for
	// OpOffload, the encoded dsm.WarmupChunk for OpDSMWarmup. Like a
	// migration, a chunk carries cor IDs only — never plaintext.
	Body []byte `json:"-"`
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
	// Catalog for OpCatalog.
	Catalog []CatalogEntry `json:"catalog,omitempty"`
	// Record is the resealed wire record for OpReseal.
	Record []byte `json:"record,omitempty"`
	// Audit entries for OpAudit.
	Audit []AuditEntry `json:"audit,omitempty"`
	// Owner names the member that owns the device's shard: the answer to
	// OpWhoOwns, and the redirect hint on a not-owner refusal — the client
	// resends the identical request (same ReqID) to that member.
	Owner string `json:"owner,omitempty"`
	// ErrorCode is the stable numeric form (node.Code) of a failure that is
	// not a policy denial; 0 when there is none. Clients map it back onto
	// the node sentinels, so errors.Is works across the wire.
	ErrorCode int `json:"error_code,omitempty"`
	// AppHash and CodeSize answer OpInstall: the node-computed dex hash
	// (the device cross-checks it) and the verified program's size.
	AppHash  string `json:"app_hash,omitempty"`
	CodeSize int    `json:"code_size,omitempty"`
	// Stats carries the node-side counters with an OpOffload reply.
	Stats *node.Stats `json:"stats,omitempty"`
	// Body is the reply migration of an OpOffload. On the wire it travels
	// as the frame's raw binary body; the JSON form exists for replay
	// records, which cross a shard handoff as JSON.
	Body []byte `json:"body,omitempty"`
}

// maxMessage bounds a single protocol message: its head and its body
// together.
const maxMessage = 16 << 20

// bodyFlag marks a frame whose JSON head is followed by a raw binary body.
// A frame is u32 head length | head, or — with the flag set on that word —
// u32 head length|bodyFlag | u32 body length | head | body. A message
// without a body therefore encodes exactly as before bodies existed.
const bodyFlag = 1 << 31

// maxPooled bounds the buffers kept in the pools; larger one-off messages
// (a big catalog, a long audit query) are allocated and dropped rather
// than pinning memory.
const maxPooled = 1 << 20

// writeBufPool recycles the marshal buffers WriteMessage frames into so a
// busy node does not allocate per request.
var writeBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBufPool recycles the head buffers ReadMessage decodes from.
// json.Unmarshal copies everything it stores (including json.RawMessage
// and []byte fields), so the buffer can be reused immediately after.
var readBufPool = sync.Pool{New: func() any {
	b := make([]byte, 4096)
	return &b
}}

// WriteMessage frames and writes one JSON message, with a Request's or
// Response's Body as the frame's binary body. The whole frame leaves in a
// single Write, so a bufio.Writer or a raw conn both see one contiguous
// frame.
func WriteMessage(w io.Writer, v any) error {
	var body []byte
	switch m := v.(type) {
	case *Request:
		body = m.Body
	case *Response:
		if len(m.Body) > 0 {
			body = m.Body
			head := *m
			head.Body = nil
			v = &head
		}
	}
	buf := writeBufPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooled {
			buf.Reset()
			writeBufPool.Put(buf)
		}
	}()
	buf.Reset()
	hdr := 4
	if len(body) > 0 {
		hdr = 8
	}
	buf.Write(make([]byte, hdr)) // length words, patched below
	enc := json.NewEncoder(buf)
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("nodeproto: marshal: %v", err)
	}
	head := buf.Len() - hdr
	if head+len(body) > maxMessage {
		return fmt.Errorf("nodeproto: message of %d bytes exceeds limit", head+len(body))
	}
	buf.Write(body)
	frame := buf.Bytes()
	binary.BigEndian.PutUint32(frame, uint32(head))
	if len(body) > 0 {
		frame[0] |= bodyFlag >> 24
		binary.BigEndian.PutUint32(frame[4:], uint32(len(body)))
	}
	_, err := w.Write(frame)
	return err
}

// headLength decodes a frame's first length word.
func headLength(word uint32) (n int, hasBody bool, err error) {
	hasBody = word&bodyFlag != 0
	word &^= bodyFlag
	if word == 0 || word > maxMessage {
		return 0, false, fmt.Errorf("nodeproto: implausible message length %d", word)
	}
	return int(word), hasBody, nil
}

// bodyLength decodes a flagged frame's body length word; an empty body is
// never encoded, and head plus body stay within maxMessage.
func bodyLength(word uint32, head int) (int, error) {
	if word == 0 || uint64(word)+uint64(head) > maxMessage {
		return 0, fmt.Errorf("nodeproto: implausible body length %d", word)
	}
	return int(word), nil
}

// FrameLen reports the length of the complete frame at the start of b, or 0
// when b holds only a prefix of one. Transports that cannot block inside
// ReadMessage — the simulation's event-driven TCP — use it to split frames
// out of a byte stream before decoding each with ReadMessage.
func FrameLen(b []byte) (int, error) {
	if len(b) < 4 {
		return 0, nil
	}
	head, hasBody, err := headLength(binary.BigEndian.Uint32(b))
	if err != nil {
		return 0, err
	}
	n := 4 + head
	if hasBody {
		if len(b) < 8 {
			return 0, nil
		}
		body, err := bodyLength(binary.BigEndian.Uint32(b[4:]), head)
		if err != nil {
			return 0, err
		}
		n += 4 + body
	}
	if len(b) < n {
		return 0, nil
	}
	return n, nil
}

// ReadMessage reads one framed message into v. A frame's binary body lands
// in the Request's or Response's Body; any other v refuses one.
func ReadMessage(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n, hasBody, err := headLength(binary.BigEndian.Uint32(hdr[:]))
	if err != nil {
		return err
	}
	var body []byte
	if hasBody {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return err
		}
		m, err := bodyLength(binary.BigEndian.Uint32(hdr[:]), n)
		if err != nil {
			return err
		}
		body = make([]byte, m)
	}
	bp := readBufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	head := (*bp)[:n]
	defer func() {
		if cap(*bp) <= maxPooled {
			readBufPool.Put(bp)
		}
	}()
	if _, err := io.ReadFull(r, head); err != nil {
		return err
	}
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	// Protocol envelopes take the schema-specialized fast path (codec.go);
	// anything it does not fully understand — and any other type — goes
	// through the general single-scan decoder. The target is zeroed before
	// falling back so a partially-filled fast-path attempt cannot leak.
	switch t := v.(type) {
	case *Request:
		if !decodeRequest(head, t) {
			*t = Request{}
			err = unmarshal(head, t)
		}
		if hasBody {
			t.Body = body
		}
	case *Response:
		if !decodeResponse(head, t) {
			*t = Response{}
			err = unmarshal(head, t)
		}
		if hasBody {
			t.Body = body
		}
	default:
		if hasBody {
			return fmt.Errorf("nodeproto: unexpected body on a %T message", v)
		}
		err = unmarshal(head, v)
	}
	return err
}

func unmarshal(head []byte, v any) error {
	if err := fastjson.Unmarshal(head, v); err != nil {
		return fmt.Errorf("nodeproto: unmarshal: %v", err)
	}
	return nil
}
