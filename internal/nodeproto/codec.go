package nodeproto

import (
	"encoding/base64"
	"encoding/json"

	"tinman/internal/fastjson"
)

// Schema-specialized decoders for the two protocol envelopes. Reflection
// through encoding/json is the node's single largest CPU cost at
// pipelined rates, and the messages are small, fixed-shape objects — a
// hand-rolled scan decodes them in one pass with no reflection.
//
// The decoders are fast paths, not replacements: they handle exactly the
// JSON this package's own marshaler emits (no escapes, no unknown keys,
// no repeated list keys, std-alphabet base64) and report false for
// everything else, in which case ReadMessage zeroes the target and
// re-decodes the untouched body with the full decoder. A third-party peer
// is therefore at worst slow, never misread: FuzzReadMessage holds
// ReadMessage to encoding/json's answer on arbitrary bodies.

// decodeRequest fast-decodes a Request body; false means fall back.
func decodeRequest(body []byte, req *Request) bool {
	s := fastjson.Scanner{Data: body}
	if !s.Consume('{') {
		return false
	}
	if !s.Consume('}') {
		for {
			key, ok := s.StrBytes()
			if !ok || !s.Consume(':') {
				return false
			}
			switch string(key) {
			case "op":
				v, ok := s.StrBytes()
				if !ok {
					return false
				}
				req.Op = Op(v)
			case "seq":
				v, ok := s.UInt()
				if !ok {
					return false
				}
				req.Seq = v
			case "req_id":
				if !decodeString(&s, &req.ReqID) {
					return false
				}
			case "cor_id":
				if !decodeString(&s, &req.CorID) {
					return false
				}
			case "app_hash":
				if !decodeString(&s, &req.AppHash) {
					return false
				}
			case "device_id":
				if !decodeString(&s, &req.DeviceID) {
					return false
				}
			case "domain":
				if !decodeString(&s, &req.Domain) {
					return false
				}
			case "target_ip":
				if !decodeString(&s, &req.TargetIP) {
					return false
				}
			case "record_len":
				v, ok := s.Int()
				if !ok {
					return false
				}
				req.RecordLen = v
			case "trace_id":
				if !decodeString(&s, &req.TraceID) {
					return false
				}
			case "span_id":
				if !decodeString(&s, &req.SpanID) {
					return false
				}
			case "state":
				// Captured verbatim; copied because the body buffer is pooled.
				v, ok := s.RawValue()
				if !ok {
					return false
				}
				req.State = append(json.RawMessage(nil), v...)
			case "app":
				if !decodeString(&s, &req.App) {
					return false
				}
			case "client_addr":
				if !decodeString(&s, &req.ClientAddr) {
					return false
				}
			case "client_port":
				v, ok := s.Int()
				if !ok {
					return false
				}
				req.ClientPort = v
			case "server_port":
				v, ok := s.Int()
				if !ok {
					return false
				}
				req.ServerPort = v
			default:
				return false
			}
			if s.Consume(',') {
				continue
			}
			if s.Consume('}') {
				break
			}
			return false
		}
	}
	return s.End()
}

// decodeResponse fast-decodes a Response body; false means fall back.
func decodeResponse(body []byte, resp *Response) bool {
	s := fastjson.Scanner{Data: body}
	if !s.Consume('{') {
		return false
	}
	if !s.Consume('}') {
		for {
			key, ok := s.StrBytes()
			if !ok || !s.Consume(':') {
				return false
			}
			switch string(key) {
			case "ok":
				v, ok := s.Bool()
				if !ok {
					return false
				}
				resp.OK = v
			case "seq":
				v, ok := s.UInt()
				if !ok {
					return false
				}
				resp.Seq = v
			case "error":
				if !decodeString(&s, &resp.Error) {
					return false
				}
			case "denial":
				if !decodeString(&s, &resp.Denial) {
					return false
				}
			case "denial_code":
				v, ok := s.Int()
				if !ok {
					return false
				}
				resp.DenialCode = v
			case "error_code":
				v, ok := s.Int()
				if !ok {
					return false
				}
				resp.ErrorCode = v
			case "app_hash":
				if !decodeString(&s, &resp.AppHash) {
					return false
				}
			case "code_size":
				v, ok := s.Int()
				if !ok {
					return false
				}
				resp.CodeSize = v
			case "owner":
				if !decodeString(&s, &resp.Owner) {
					return false
				}
			case "record":
				b64, ok := s.StrBytes()
				if !ok {
					return false
				}
				out := make([]byte, base64.StdEncoding.DecodedLen(len(b64)))
				n, err := base64.StdEncoding.Decode(out, b64)
				if err != nil {
					return false
				}
				resp.Record = out[:n]
			case "catalog":
				// A repeated key would make encoding/json decode into the
				// first list's elements; leave that to it.
				if resp.Catalog != nil || !s.Consume('[') {
					return false
				}
				resp.Catalog = []CatalogEntry{}
				if !s.Consume(']') {
					for {
						var e CatalogEntry
						if !decodeCatalogEntry(&s, &e) {
							return false
						}
						resp.Catalog = append(resp.Catalog, e)
						if s.Consume(',') {
							continue
						}
						if s.Consume(']') {
							break
						}
						return false
					}
				}
			case "audit":
				// A repeated key would make encoding/json decode into the
				// first list's elements; leave that to it.
				if resp.Audit != nil || !s.Consume('[') {
					return false
				}
				resp.Audit = []AuditEntry{}
				if !s.Consume(']') {
					for {
						var e AuditEntry
						if !decodeAuditEntry(&s, &e) {
							return false
						}
						resp.Audit = append(resp.Audit, e)
						if s.Consume(',') {
							continue
						}
						if s.Consume(']') {
							break
						}
						return false
					}
				}
			default:
				return false
			}
			if s.Consume(',') {
				continue
			}
			if s.Consume('}') {
				break
			}
			return false
		}
	}
	return s.End()
}

func decodeCatalogEntry(s *fastjson.Scanner, e *CatalogEntry) bool {
	if !s.Consume('{') {
		return false
	}
	if s.Consume('}') {
		return true
	}
	for {
		key, ok := s.StrBytes()
		if !ok || !s.Consume(':') {
			return false
		}
		switch string(key) {
		case "id":
			if !decodeString(s, &e.ID) {
				return false
			}
		case "placeholder":
			if !decodeString(s, &e.Placeholder) {
				return false
			}
		case "description":
			if !decodeString(s, &e.Description) {
				return false
			}
		case "bit":
			v, ok := s.Int()
			if !ok {
				return false
			}
			e.Bit = v
		case "class":
			if !decodeString(s, &e.Class) {
				return false
			}
		default:
			return false
		}
		if s.Consume(',') {
			continue
		}
		return s.Consume('}')
	}
}

func decodeAuditEntry(s *fastjson.Scanner, e *AuditEntry) bool {
	if !s.Consume('{') {
		return false
	}
	if s.Consume('}') {
		return true
	}
	for {
		key, ok := s.StrBytes()
		if !ok || !s.Consume(':') {
			return false
		}
		switch string(key) {
		case "seq":
			v, ok := s.UInt()
			if !ok {
				return false
			}
			e.Seq = v
		case "time":
			if !decodeString(s, &e.Time) {
				return false
			}
		case "app_hash":
			if !decodeString(s, &e.AppHash) {
				return false
			}
		case "cor_id":
			if !decodeString(s, &e.CorID) {
				return false
			}
		case "device":
			if !decodeString(s, &e.Device) {
				return false
			}
		case "domain":
			if !decodeString(s, &e.Domain) {
				return false
			}
		case "outcome":
			if !decodeString(s, &e.Outcome) {
				return false
			}
		case "detail":
			if !decodeString(s, &e.Detail) {
				return false
			}
		case "device_seq":
			v, ok := s.UInt()
			if !ok {
				return false
			}
			e.DeviceSeq = v
		case "policy_version":
			v, ok := s.UInt()
			if !ok {
				return false
			}
			e.PolicyVersion = v
		case "policy_hash":
			if !decodeString(s, &e.PolicyHash) {
				return false
			}
		default:
			return false
		}
		if s.Consume(',') {
			continue
		}
		return s.Consume('}')
	}
}

func decodeString(s *fastjson.Scanner, dst *string) bool {
	v, ok := s.Str()
	if !ok {
		return false
	}
	*dst = v
	return true
}
