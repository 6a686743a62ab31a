package nodeproto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"
)

// requestCases covers every Request field plus shapes that must force the
// fallback (escaped strings, HTML-escaped runes, unknown keys).
var requestCases = []Request{
	{},
	{Op: OpPing},
	{Op: OpCatalog, Seq: 7},
	{Op: OpRegister, CorID: "pw", Plaintext: "hunter2", Description: "the password", Whitelist: []string{"a.example", "b.example"}},
	{Op: OpGenerate, CorID: "tok", Length: 32, Whitelist: []string{}},
	{Op: OpBind, CorID: "pw", AppHash: "deadbeef"},
	{Op: OpRevoke, DeviceID: "phone-1"},
	{Op: OpDerive, CorID: "pw-web", ParentID: "pw", Description: "derived"},
	{Op: OpReseal, Seq: 1 << 40, CorID: "pw", AppHash: "abc", DeviceID: "phone-1",
		State:  json.RawMessage(`{"version":771,"out":{"seq":3,"key":"qg=="}}`),
		Domain: "login.example", TargetIP: "10.0.0.1", RecordLen: 64},
	{Op: OpAudit, CorID: "pw", DeviceID: "phone-1"},
	// Escapes and non-ASCII: the fast path must reject these and the
	// fallback must still produce the right answer.
	{Op: OpRegister, CorID: "q", Plaintext: "line1\nline2 \"quoted\""},
	{Op: OpRegister, CorID: "q", Description: "naïve café — ключ"},
	{Op: OpRegister, CorID: "q", Description: "a<b&c>d"},
	{Op: OpReseal, CorID: "pw", State: json.RawMessage(`"opaque-string-state"`)},
	{Op: OpReseal, CorID: "pw", State: json.RawMessage(`[1,2,{"x":"]"}]`)},
	{Op: OpRegister, CorID: "pw", Plaintext: "hunter2", Class: "server-only"},
	{Op: OpSetClass, CorID: "pw", Class: "public"},
	{Op: OpPolicyInstall, Policy: json.RawMessage(`{"version":7,"revoked":["dev-1"],"rates":{"pw":{"max":3,"per":1000000000}}}`)},
	{Op: OpPolicyVersion, Seq: 9},
}

var responseCases = []Response{
	{},
	{OK: true},
	{OK: true, Seq: 42, CorID: "pw"},
	{OK: false, Error: "unknown cor \"x\"", Denial: "whitelist"},
	{OK: true, Record: []byte{0x17, 0x03, 0x03, 0x00, 0xff, 0x01}},
	{OK: true, Catalog: []CatalogEntry{}},
	{OK: true, Catalog: []CatalogEntry{
		{ID: "pw", Placeholder: "\x00PLACEHOLDER\x00", Description: "password", Bit: 3},
		{ID: "tok", Placeholder: "p2", Description: "token", Bit: 0},
	}},
	{OK: true, Audit: []AuditEntry{
		{Seq: 1, Time: "2015-04-21T10:00:00Z", AppHash: "h", CorID: "pw", Device: "d", Domain: "x.example", Outcome: "allowed", Detail: "record resealed"},
	}},
	{OK: false, Error: "denied: device revoked", Denial: "revoked", DenialCode: 3},
	{OK: true, PolicyVersion: 12, PolicyHash: "abcdef012345"},
	{OK: true, Catalog: []CatalogEntry{{ID: "pw", Placeholder: "p", Description: "d", Bit: 1, Class: "server-only"}}},
	{OK: true, Audit: []AuditEntry{
		{Seq: 2, Time: "2015-04-21T10:00:01Z", Outcome: "denied", Detail: "revoked",
			DeviceSeq: 4, PolicyVersion: 12, PolicyHash: "abcdef012345"},
	}},
}

// TestCodecMatchesStdlib round-trips every case through WriteMessage →
// ReadMessage and checks the result matches a pure encoding/json decode of
// the same frame. This pins the fast path (or its fallback) to stdlib
// semantics.
func TestCodecMatchesStdlib(t *testing.T) {
	for i, rc := range requestCases {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, &rc); err != nil {
			t.Fatalf("case %d: write: %v", i, err)
		}
		frame := buf.Bytes()
		var got Request
		if err := ReadMessage(bytes.NewReader(frame), &got); err != nil {
			t.Fatalf("case %d: read: %v", i, err)
		}
		var want Request
		if err := json.Unmarshal(frame[4:], &want); err != nil {
			t.Fatalf("case %d: stdlib: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("request case %d:\n got %#v\nwant %#v", i, got, want)
		}
	}
	for i, rc := range responseCases {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, &rc); err != nil {
			t.Fatalf("case %d: write: %v", i, err)
		}
		frame := buf.Bytes()
		var got Response
		if err := ReadMessage(bytes.NewReader(frame), &got); err != nil {
			t.Fatalf("case %d: read: %v", i, err)
		}
		var want Response
		if err := json.Unmarshal(frame[4:], &want); err != nil {
			t.Fatalf("case %d: stdlib: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("response case %d:\n got %#v\nwant %#v", i, got, want)
		}
	}
}

// foreignRequests and foreignResponses are hand-written JSON a third-party
// peer might produce — reordered keys, extra whitespace, unknown fields,
// escaped strings, null values.
var foreignRequests = []string{
	`{}`,
	`{ "op" : "ping" }`,
	"{\n\t\"seq\": 3,\n\t\"op\": \"catalog\"\n}",
	`{"op":"reseal","state":null,"cor_id":"pw"}`,
	`{"op":"reseal","state": {"a": [1, "]}", true]} ,"domain":"d.example"}`,
	`{"unknown_field":123,"op":"ping"}`,
	`{"op":"regi\u0073ter","cor_id":"pw"}`,
	`{"op":"catalog","seq":18446744073709551615}`,
	`{"whitelist":["a","b","c"],"op":"register"}`,
}

var foreignResponses = []string{
	`{"ok":true,"seq":1}`,
	`{"seq":1,"ok":true,"record":"AQID"}`,
	`{"ok":false,"error":"denied: \"pw\" not bound"}`,
	`{"ok":true,"catalog":[{"bit":1,"id":"pw","placeholder":"p","description":"d"}]}`,
	`{"ok":true,"catalog":null}`,
	`{"ok":true,"extra":"ignored"}`,
}

// TestCodecForeignShapes checks ReadMessage agrees with stdlib on the
// foreign shapes.
func TestCodecForeignShapes(t *testing.T) {
	for i, body := range foreignRequests {
		var got Request
		if err := readFramed(t, body, &got); err != nil {
			t.Fatalf("case %d: read: %v", i, err)
		}
		var want Request
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatalf("case %d: stdlib: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d (%s):\n got %#v\nwant %#v", i, body, got, want)
		}
	}

	for i, body := range foreignResponses {
		var got Response
		if err := readFramed(t, body, &got); err != nil {
			t.Fatalf("resp case %d: read: %v", i, err)
		}
		var want Response
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatalf("resp case %d: stdlib: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("resp case %d (%s):\n got %#v\nwant %#v", i, body, got, want)
		}
	}
}

func readFramed(t *testing.T, body string, v any) error {
	t.Helper()
	var buf bytes.Buffer
	buf.Write([]byte{byte(len(body) >> 24), byte(len(body) >> 16), byte(len(body) >> 8), byte(len(body))})
	buf.WriteString(body)
	return ReadMessage(&buf, v)
}

// TestCodecRejectsGarbage checks malformed bodies still error through the
// fallback instead of being half-accepted by the fast path.
func TestCodecRejectsGarbage(t *testing.T) {
	for _, body := range []string{
		`{"op":"ping"`,
		`{"op":}`,
		`{"op":"ping"}{"op":"ping"}`,
		`[1,2,3]`,
		`not json`,
	} {
		var req Request
		if err := readFramed(t, body, &req); err == nil {
			t.Errorf("body %q: expected error, got %#v", body, req)
		}
	}
}

// FuzzReadMessage checks both envelopes' decoders against encoding/json on
// arbitrary bodies: ReadMessage must never panic, must return exactly what
// json.Unmarshal returns where it accepts, and must fail where it rejects.
// This codec is the only code that decodes peer bytes, so a fast-path
// shortcut that accepts what the full decoder rejects (or decodes it
// differently) is a bug.
func FuzzReadMessage(f *testing.F) {
	for _, rc := range requestCases {
		body, err := json.Marshal(rc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, rc := range responseCases {
		body, err := json.Marshal(rc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range append(append([]string(nil), foreignRequests...), foreignResponses...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		frame := make([]byte, 4, 4+len(body))
		binary.BigEndian.PutUint32(frame, uint32(len(body)))
		frame = append(frame, body...)
		checkDecode[Request](t, frame, body)
		checkDecode[Response](t, frame, body)
	})
}

// checkDecode compares ReadMessage against json.Unmarshal for one envelope.
func checkDecode[T any](t *testing.T, frame, body []byte) {
	var got, want T
	gotErr := ReadMessage(bytes.NewReader(frame), &got)
	if wantErr := json.Unmarshal(body, &want); wantErr != nil {
		if gotErr == nil {
			t.Fatalf("%T: ReadMessage accepted %q, encoding/json rejects it: %v", got, body, wantErr)
		}
		return
	}
	if gotErr != nil {
		t.Fatalf("%T: ReadMessage rejected %q: %v", got, body, gotErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: body %q:\n got %#v\nwant %#v", got, body, got, want)
	}
}
