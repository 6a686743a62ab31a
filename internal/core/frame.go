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
//
// Every reader of a simulated connection parses frames in place, straight
// from tcpsim's Conn.Buffered, and releases them with Conn.Discard once
// nothing it returns still points into them.
package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"tinman/internal/nodeproto"
	"tinman/internal/tcpsim"
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

// NextFrame parses the complete frame at the start of b and returns it with
// its wire length, or a zero length when b holds only a prefix of one. The
// frame's Payload aliases b.
func NextFrame(b []byte) (Frame, int, error) {
	if len(b) < 4 {
		return Frame{}, 0, nil
	}
	n := binary.BigEndian.Uint32(b)
	if n == 0 || n > 64<<20 {
		return Frame{}, 0, fmt.Errorf("core: implausible frame length %d", n)
	}
	if len(b) < 4+int(n) {
		return Frame{}, 0, nil
	}
	return Frame{Type: b[4], Payload: b[5 : 4+n]}, 4 + int(n), nil
}

// readMsg decodes the next complete nodeproto message buffered on c into v
// and discards its bytes. It returns the message's wire length, or 0 when
// no whole message is buffered yet. The decoded message owns everything it
// holds (ReadMessage copies a frame's body out), so the discard is safe.
func readMsg(c *tcpsim.Conn, v any) (int, error) {
	buf := c.Buffered()
	n, err := nodeproto.FrameLen(buf)
	if err != nil || n == 0 {
		return 0, err
	}
	err = nodeproto.ReadMessage(bytes.NewReader(buf[:n]), v)
	c.Discard(n)
	return n, err
}

// connWriter lets nodeproto.WriteMessage frame a message straight onto a
// simulated connection: the frame leaves in one Conn.Write, which copies
// its bytes once, into the segments' wire buffers. n counts the bytes
// written.
type connWriter struct {
	c *tcpsim.Conn
	n int
}

func (w *connWriter) Write(p []byte) (int, error) {
	if err := w.c.Write(p); err != nil {
		return 0, err
	}
	w.n += len(p)
	return len(p), nil
}

// encodeMsg frames one nodeproto message into a buffer of its own — for a
// control request, whose wire is resent unchanged on retry.
func encodeMsg(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := nodeproto.WriteMessage(&buf, v)
	return buf.Bytes(), err
}
