package nodeproto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"

	"tinman/internal/node"
	"tinman/internal/policy"
)

// requestCases covers every Request field plus shapes that must force the
// fallback (escaped strings, HTML-escaped runes, unknown keys).
var requestCases = []Request{
	{},
	{Op: OpPing},
	{Op: OpCatalog, Seq: 7},
	{Op: OpWhoOwns, DeviceID: "phone-1"},
	{Op: OpInstall, Seq: 2, ReqID: "phone-1#2", DeviceID: "phone-1", App: "paypal"},
	{Op: OpReseal, CorID: "pw", AppHash: "deadbeef"},
	{Op: OpAudit, DeviceID: "phone-1"},
	{Op: OpOffload, ReqID: "phone-1#3", DeviceID: "phone-1", App: "paypal"},
	{Op: OpReseal, Seq: 1 << 40, CorID: "pw", AppHash: "abc", DeviceID: "phone-1",
		State:  json.RawMessage(`{"version":771,"out":{"seq":3,"key":"qg=="}}`),
		Domain: "login.example", TargetIP: "10.0.0.1", RecordLen: 64},
	{Op: OpAudit, CorID: "pw", DeviceID: "phone-1"},
	// Escapes and non-ASCII: the fast path must reject these and the
	// fallback must still produce the right answer.
	{Op: OpReseal, CorID: "q", Domain: "line1\nline2 \"quoted\""},
	{Op: OpAudit, CorID: "naïve café — ключ"},
	{Op: OpReseal, CorID: "q", Domain: "a<b&c>d"},
	{Op: OpReseal, CorID: "pw", State: json.RawMessage(`"opaque-string-state"`)},
	{Op: OpReseal, CorID: "pw", State: json.RawMessage(`[1,2,{"x":"]"}]`)},
	{Op: OpDSMWarmup, DeviceID: "phone-1", App: "paypal", TraceID: "00000000000000a1", SpanID: "00000000000000b2"},
	{Op: OpInject, DeviceID: "phone-1", App: "paypal", ClientPort: 0, ServerPort: 65535},
	{Op: OpReseal, State: json.RawMessage(`{"version":7,"revoked":["dev-1"],"rates":{"pw":{"max":3,"per":1000000000}}}`)},
	{Op: OpWhoOwns, Seq: 9},
	{Op: OpInject, Seq: 10, ReqID: "dev#10", DeviceID: "dev", App: "paypal", CorID: "pw", Domain: "paypal.com",
		State: json.RawMessage(`{"version":771}`), TargetIP: "198.51.100.7", ClientAddr: "10.0.0.2", ClientPort: 40001, ServerPort: 443},
}

var responseCases = []Response{
	{},
	{OK: true},
	{OK: true, Seq: 42, Owner: "node-2"},
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
	{OK: false, Seq: 12, Error: "node: not owner: device d is owned by node-3", Owner: "node-3"},
	{OK: true, Catalog: []CatalogEntry{{ID: "pw", Placeholder: "p", Description: "d", Bit: 1, Class: "server-only"}}},
	{OK: true, Audit: []AuditEntry{
		{Seq: 2, Time: "2015-04-21T10:00:01Z", Outcome: "denied", Detail: "revoked",
			DeviceSeq: 4, PolicyVersion: 12, PolicyHash: "abcdef012345"},
	}},
	{OK: true, Seq: 3, AppHash: "0123abcd", CodeSize: 412},
	{OK: false, Seq: 4, Error: "node: offloaded execution failed", ErrorCode: 7},
	{OK: true, Seq: 5, Stats: &node.Stats{Instrs: 10, Calls: 2, Syncs: 1, InitBytes: 600, DirtyBytes: 30, Executed: 8, ExecStartNs: 12345}},
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
// peer might produce — reordered keys, extra whitespace, unknown fields
// (among them the admin keys an older peer sent), escaped strings, null
// values.
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
	`{"op":"policy_install","plaintext":"hunter2","policy":{"revoked":["d"]},"shard":{"device_id":"d"},"length":8}`,
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

// TestWireBytesWithoutBody pins the encoding of messages that carry no
// binary body to the bytes they had before bodies existed: a reseal
// request, its response, and a policy denial.
func TestWireBytesWithoutBody(t *testing.T) {
	denial := errResponse(&policy.Denial{Reason: policy.ReasonRevoked, CorID: "pw", Detail: "device dev-1"})
	denial.Seq = 8
	for _, c := range []struct {
		msg  any
		want string
	}{
		{&Request{Op: OpReseal, Seq: 7, ReqID: "dev-1-n-3", CorID: "pw", AppHash: "abc123", DeviceID: "dev-1",
			State: json.RawMessage(`{"version":771,"out":{"seq":3}}`), Domain: "login.example", TargetIP: "10.0.0.1",
			RecordLen: 64, TraceID: "00000000000000a1", SpanID: "00000000000000b2"},
			"\x00\x00\x01\x06{\"op\":\"reseal\",\"seq\":7,\"req_id\":\"dev-1-n-3\",\"cor_id\":\"pw\",\"app_hash\":\"abc123\",\"device_id\":\"dev-1\",\"state\":{\"version\":771,\"out\":{\"seq\":3}},\"domain\":\"login.example\",\"target_ip\":\"10.0.0.1\",\"record_len\":64,\"trace_id\":\"00000000000000a1\",\"span_id\":\"00000000000000b2\"}\n"},
		{&Response{OK: true, Seq: 7, Record: []byte{0x17, 0x03, 0x03, 0x00, 0x05, 1, 2, 3, 4, 5}},
			"\x00\x00\x000{\"ok\":true,\"seq\":7,\"record\":\"FwMDAAUBAgMEBQ==\"}\n"},
		{denial,
			"\x00\x00\x00\x88{\"ok\":false,\"seq\":8,\"error\":\"policy: pw denied: device access revoked (device dev-1)\",\"denial\":\"device access revoked\",\"denial_code\":4}\n"},
	} {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, c.msg); err != nil {
			t.Fatal(err)
		}
		if buf.String() != c.want {
			t.Errorf("%T encodes as\n%q\nwant\n%q", c.msg, buf.String(), c.want)
		}
	}
}

// TestBodyRoundTrip sends body-bearing messages through the codec: the
// body survives byte for byte outside the JSON head, FrameLen reports a
// frame only once all of it is buffered, and a body-less message still
// decodes with a nil Body.
func TestBodyRoundTrip(t *testing.T) {
	body := []byte{0, 1, 2, '\n', '"', 0xff}
	for _, msg := range []any{
		&Request{Op: OpOffload, Seq: 3, DeviceID: "d", App: "a", Body: body},
		&Response{OK: true, Seq: 3, Stats: &node.Stats{Instrs: 9, Executed: 4}, Body: body},
		&Response{OK: true, Seq: 4},
	} {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, msg); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		if bytes.Contains(frame, []byte(`"body"`)) {
			t.Fatalf("%T: body leaked into the JSON head: %q", msg, frame)
		}
		for i := 0; i < len(frame); i++ {
			if n, err := FrameLen(frame[:i]); n != 0 || err != nil {
				t.Fatalf("%T: FrameLen(%d of %d bytes) = %d, %v", msg, i, len(frame), n, err)
			}
		}
		if n, err := FrameLen(frame); n != len(frame) || err != nil {
			t.Fatalf("%T: FrameLen = %d, %v; want %d", msg, n, err, len(frame))
		}
		got := reflect.New(reflect.TypeOf(msg).Elem()).Interface()
		if err := ReadMessage(bytes.NewReader(frame), got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("round trip:\n got %#v\nwant %#v", got, msg)
		}
	}
	// Only the two envelopes carry bodies.
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Request{Op: OpPing, Body: body}); err != nil {
		t.Fatal(err)
	}
	var other map[string]any
	if err := ReadMessage(bytes.NewReader(buf.Bytes()), &other); err == nil {
		t.Fatal("a body-bearing frame decoded into a map")
	}
}

// TestFrameLengthBounds checks every length word against maxMessage: the
// head alone, head plus body, and the empty body no encoder produces.
func TestFrameLengthBounds(t *testing.T) {
	frame := func(words ...uint32) []byte {
		b := make([]byte, 4*len(words))
		for i, w := range words {
			binary.BigEndian.PutUint32(b[4*i:], w)
		}
		return b
	}
	for name, f := range map[string][]byte{
		"empty head":        frame(0),
		"huge head":         frame(maxMessage + 1),
		"huge flagged head": frame(bodyFlag|(maxMessage+1), 1),
		"empty body":        frame(bodyFlag|2, 0),
		"head plus body":    frame(bodyFlag|2, maxMessage-1),
		"all ones":          frame(0xffffffff, 0xffffffff),
	} {
		if _, err := FrameLen(f); err == nil {
			t.Errorf("%s: FrameLen accepted the length words", name)
		}
		var req Request
		if err := ReadMessage(bytes.NewReader(f), &req); err == nil {
			t.Errorf("%s: ReadMessage accepted the length words", name)
		}
	}
	var big bytes.Buffer
	if err := WriteMessage(&big, &Request{Op: OpOffload, Body: make([]byte, maxMessage)}); err == nil {
		t.Fatal("WriteMessage framed a message over the limit")
	}
}

// FuzzReadMessage checks both envelopes' decoders against encoding/json on
// arbitrary heads, framed with and without a binary body: ReadMessage must
// never panic, must return exactly what json.Unmarshal returns for the
// head where it accepts — with the body attached byte for byte — and must
// fail where it rejects. The head bytes are also read as a raw frame, whose
// length words FrameLen must bound by maxMessage. This codec is the only
// code that decodes peer bytes, so a fast-path shortcut that accepts what
// the full decoder rejects (or decodes it differently) is a bug.
func FuzzReadMessage(f *testing.F) {
	for _, rc := range requestCases {
		head, err := json.Marshal(rc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(head, []byte(nil))
	}
	for _, rc := range responseCases {
		head, err := json.Marshal(rc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(head, []byte(nil))
	}
	for _, head := range append(append([]string(nil), foreignRequests...), foreignResponses...) {
		f.Add([]byte(head), []byte(nil))
	}
	for _, m := range []any{
		&Request{Op: OpOffload, Seq: 5, ReqID: "dev#5", DeviceID: "dev", App: "paypal", Body: []byte{1, 2, 3}},
		&Request{Op: OpDSMWarmup, Seq: 6, DeviceID: "dev", App: "paypal", Body: []byte("chunk")},
		&Response{OK: true, Seq: 5, Stats: &node.Stats{Instrs: 7, Syncs: 1, Executed: 3, ExecStartNs: 99}, Body: []byte{0, 0xff}},
		&Response{OK: false, Seq: 6, Error: "warm epoch 3 not ready", ErrorCode: 11},
	} {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			f.Fatal(err)
		}
		frame := buf.Bytes()
		if frame[0]&(bodyFlag>>24) == 0 {
			f.Add(frame[4:], []byte(nil))
			continue
		}
		head := int(binary.BigEndian.Uint32(frame) &^ bodyFlag)
		f.Add(frame[8:8+head], frame[8+head:])
		f.Add(frame, []byte(nil))
	}
	f.Fuzz(func(t *testing.T, head, body []byte) {
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(head)))
		if len(body) > 0 {
			frame[0] |= bodyFlag >> 24
			frame = binary.BigEndian.AppendUint32(frame, uint32(len(body)))
		}
		frame = append(append(frame, head...), body...)
		checkDecode[Request](t, frame, head, body)
		checkDecode[Response](t, frame, head, body)
		checkRawFrame(t, head)
	})
}

// checkDecode compares ReadMessage against json.Unmarshal of the head for
// one envelope, with the frame's body as the envelope's Body.
func checkDecode[T any](t *testing.T, frame, head, body []byte) {
	var got, want T
	gotErr := ReadMessage(bytes.NewReader(frame), &got)
	if wantErr := json.Unmarshal(head, &want); wantErr != nil {
		if gotErr == nil {
			t.Fatalf("%T: ReadMessage accepted %q, encoding/json rejects it: %v", got, head, wantErr)
		}
		return
	}
	if gotErr != nil {
		t.Fatalf("%T: ReadMessage rejected %q: %v", got, head, gotErr)
	}
	if len(body) > 0 {
		switch w := any(&want).(type) {
		case *Request:
			w.Body = body
		case *Response:
			w.Body = body
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: head %q, body %q:\n got %#v\nwant %#v", got, head, body, got, want)
	}
}

// checkRawFrame reads arbitrary bytes as a frame: a frame FrameLen reports
// complete stays within maxMessage and decodes the same whatever follows.
func checkRawFrame(t *testing.T, raw []byte) {
	n, err := FrameLen(raw)
	if err != nil || n == 0 {
		return
	}
	if n > len(raw) || n > 8+maxMessage {
		t.Fatalf("FrameLen(%q) = %d", raw, n)
	}
	var exact, padded Request
	e1 := ReadMessage(bytes.NewReader(raw[:n]), &exact)
	e2 := ReadMessage(bytes.NewReader(raw), &padded)
	if (e1 == nil) != (e2 == nil) || e1 == nil && !reflect.DeepEqual(exact, padded) {
		t.Fatalf("frame %q decodes differently with trailing bytes: %v / %v", raw, e1, e2)
	}
}
