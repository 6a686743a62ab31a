// Package tcpsim is a compact userspace TCP over the netsim substrate: SYN
// handshake, cumulative ACKs, segmentation, retransmission and checksums —
// enough protocol to host TinMan's TCP-layer mechanism, payload replacement
// (§3.3): a marked segment is captured by an egress filter on the device,
// redirected to the trusted node, its payload swapped for the cor-bearing
// ciphertext, and forwarded to the origin server with the original TCP
// header intact.
//
// Every byte crosses each hop with one copy: Conn.Write copies into the
// segment's wire buffer, which the retransmission queue keeps (a packet's
// payload is never written after netsim's Send, so a resend encodes a
// fresh one); DecodeSegment aliases the packet; delivery copies into the
// connection's receive buffer, which readers parse in place through
// Conn.Buffered and release with Conn.Discard.
package tcpsim

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Flag bits.
const (
	FlagFIN uint8 = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
)

// MSS is the maximum segment payload.
const MSS = 1400

// Segment is a TCP segment. Addresses live in the enclosing netsim packet;
// the checksum covers a pseudo-header with both.
type Segment struct {
	SrcPort  uint16
	DstPort  uint16
	Seq      uint32
	Ack      uint32
	Flags    uint8
	Window   uint16
	Checksum uint16
	Payload  []byte
}

// segHeaderLen is the encoded header length; the checksum sits at
// [15:17], straddling the 16-bit words at 14 and 16.
const segHeaderLen = 17

// flagNames for diagnostics.
func (s *Segment) flagString() string {
	out := ""
	for _, f := range []struct {
		bit  uint8
		name string
	}{{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagFIN, "FIN"}, {FlagRST, "RST"}, {FlagPSH, "PSH"}} {
		if s.Flags&f.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += f.name
		}
	}
	if out == "" {
		out = "-"
	}
	return out
}

// String renders the segment for logs.
func (s *Segment) String() string {
	return fmt.Sprintf("tcp %d->%d %s seq=%d ack=%d len=%d", s.SrcPort, s.DstPort, s.flagString(), s.Seq, s.Ack, len(s.Payload))
}

// Encode serializes the segment into a new buffer, computing the checksum
// over the pseudo-header (src, dst) and the segment bytes.
func (s *Segment) Encode(src, dst string) []byte {
	buf := make([]byte, segHeaderLen+len(s.Payload))
	copy(buf[segHeaderLen:], s.Payload)
	s.encodeHeader(src, dst, buf)
	return buf
}

// encodeHeader writes the header and checksum into buf, whose bytes from
// segHeaderLen on already hold the payload.
func (s *Segment) encodeHeader(src, dst string, buf []byte) {
	binary.BigEndian.PutUint16(buf[0:], s.SrcPort)
	binary.BigEndian.PutUint16(buf[2:], s.DstPort)
	binary.BigEndian.PutUint32(buf[4:], s.Seq)
	binary.BigEndian.PutUint32(buf[8:], s.Ack)
	buf[12] = s.Flags
	binary.BigEndian.PutUint16(buf[13:], s.Window)
	s.Checksum = checksum(src, dst, buf)
	binary.BigEndian.PutUint16(buf[15:], s.Checksum)
}

// DecodeSegment parses and verifies a segment received between src and
// dst. The checksum is verified in place, and the returned Payload aliases
// buf.
func DecodeSegment(src, dst string, buf []byte) (*Segment, error) {
	if len(buf) < segHeaderLen {
		return nil, fmt.Errorf("tcpsim: segment too short (%d bytes)", len(buf))
	}
	s := &Segment{
		SrcPort:  binary.BigEndian.Uint16(buf[0:]),
		DstPort:  binary.BigEndian.Uint16(buf[2:]),
		Seq:      binary.BigEndian.Uint32(buf[4:]),
		Ack:      binary.BigEndian.Uint32(buf[8:]),
		Flags:    buf[12],
		Window:   binary.BigEndian.Uint16(buf[13:]),
		Checksum: binary.BigEndian.Uint16(buf[15:]),
		Payload:  buf[segHeaderLen:len(buf):len(buf)],
	}
	if got := checksum(src, dst, buf); got != s.Checksum {
		return nil, fmt.Errorf("tcpsim: checksum mismatch: header %#04x, computed %#04x", s.Checksum, got)
	}
	return s, nil
}

// checksum is the 16-bit ones'-complement checksum over the pseudo-header
// (src and dst, each padded to a whole word) and the encoded segment, with
// the checksum field itself read as zero: the sum goes around it, so
// neither encoding nor verification copies the segment.
func checksum(src, dst string, seg []byte) uint16 {
	sum := sum64(sum64(0, src), dst)
	sum = sum64(sum, seg[:14])
	// Words 14 and 16 hold the checksum's two bytes at 15 and 16.
	around := [4]byte{seg[14], 0, 0, 0}
	if len(seg) > segHeaderLen {
		around[3] = seg[segHeaderLen]
	}
	sum = sum64(sum, around[:])
	if len(seg) > segHeaderLen+1 {
		sum = sum64(sum, seg[segHeaderLen+1:])
	}
	return ^fold(sum)
}

// sum64 adds b, read as big-endian 16-bit words with an odd last byte
// padded by a zero, to a ones'-complement running sum. It adds eight bytes
// at a time with end-around carry: RFC 1071 §2 shows the ones'-complement
// sum does not depend on the word width it is computed in, so folding the
// 64-bit sum to 16 bits gives the 16-bit word sum.
func sum64[T string | []byte](sum uint64, b T) uint64 {
	var carry uint64
	for len(b) >= 8 {
		w := uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
			uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
		sum, carry = bits.Add64(sum, w, carry)
		b = b[8:]
	}
	var w uint64
	for i := 0; i < len(b); i++ {
		w |= uint64(b[i]) << (56 - 8*i)
	}
	sum, carry = bits.Add64(sum, w, carry)
	sum, carry = bits.Add64(sum, 0, carry)
	return sum + carry
}

// fold reduces a 64-bit ones'-complement sum to 16 bits.
func fold(sum uint64) uint16 {
	sum = sum&0xffffffff + sum>>32
	sum = sum&0xffffffff + sum>>32
	sum = sum&0xffff + sum>>16
	sum = sum&0xffff + sum>>16
	return uint16(sum)
}
