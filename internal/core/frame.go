// Package core is TinMan's orchestration layer: it wires the VM, the taint
// policies, the DSM offloading engine, the cor store, the policy engine, the
// simplified TLS stack and the simulated TCP/network substrate into a
// working device + trusted-node pair, and drives the on-demand
// security-oriented offloading loop of §3.
//
// The device and its trusted node speak nodeproto, the one control
// protocol, over a simulated TCP connection: the same frames, request IDs,
// replay windows and typed errors as a device on real TCP. Core keeps only
// what the simulation adds — splitting frames out of the simulated byte
// stream, scheduling the node's modeled work, and the virtual clock. The
// Frame type here is the TLS handshake's framing between clients and origin
// servers.
package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"tinman/internal/nodeproto"
)

// Frame is one length-prefixed TLS handshake message: u32 length | u8 type |
// payload. It carries the handshake between clients and origin servers, so
// the apps package shares it.
type Frame struct {
	Type    uint8
	Payload []byte
}

// EncodeFrame produces the wire form of a frame.
func EncodeFrame(t uint8, payload []byte) []byte {
	buf := make([]byte, 5+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(1+len(payload)))
	buf[4] = t
	copy(buf[5:], payload)
	return buf
}

// FrameReader incrementally splits frames out of a TCP byte stream.
type FrameReader struct {
	buf []byte
}

// Feed appends newly received bytes.
func (r *FrameReader) Feed(b []byte) { r.buf = append(r.buf, b...) }

// Rest returns the unconsumed buffered bytes (used when a stream switches
// from framed handshake messages to self-delimiting TLS records).
func (r *FrameReader) Rest() []byte { return append([]byte(nil), r.buf...) }

// Next extracts one complete frame, or returns false.
func (r *FrameReader) Next() (Frame, bool, error) {
	if len(r.buf) < 4 {
		return Frame{}, false, nil
	}
	n := binary.BigEndian.Uint32(r.buf)
	if n == 0 || n > 64<<20 {
		return Frame{}, false, fmt.Errorf("core: implausible frame length %d", n)
	}
	if len(r.buf) < 4+int(n) {
		return Frame{}, false, nil
	}
	f := Frame{Type: r.buf[4], Payload: append([]byte(nil), r.buf[5:4+n]...)}
	r.buf = append([]byte(nil), r.buf[4+n:]...)
	return f, true, nil
}

// msgStream splits nodeproto messages out of a simulated TCP byte stream.
type msgStream struct {
	buf []byte
}

func (s *msgStream) feed(b []byte) { s.buf = append(s.buf, b...) }

// next decodes the next complete message into v and returns its wire
// length, or 0 when no complete message is buffered.
func (s *msgStream) next(v any) (int, error) {
	n, err := nodeproto.FrameLen(s.buf)
	if err != nil || n == 0 {
		return 0, err
	}
	err = nodeproto.ReadMessage(bytes.NewReader(s.buf[:n]), v)
	s.buf = s.buf[n:]
	return n, err
}

// encodeMsg frames one nodeproto message for the simulated TCP stream.
func encodeMsg(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := nodeproto.WriteMessage(&buf, v)
	return buf.Bytes(), err
}
