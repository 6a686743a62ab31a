package tcpsim

import (
	"bytes"
	"math/rand"
	"testing"

	"tinman/internal/netsim"
)

// refSum is RFC 1071's loop: add big-endian 16-bit words, an odd last byte
// padded with a zero, folding the carries back in as they appear.
func refSum(sum uint32, b []byte) uint32 {
	for ; len(b) > 1; b = b[2:] {
		sum += uint32(b[0])<<8 | uint32(b[1])
		sum = sum&0xffff + sum>>16
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
		sum = sum&0xffff + sum>>16
	}
	return sum
}

// refChecksum is the segment checksum computed the plain way: over the
// pseudo-header and a copy of the segment whose checksum field is zeroed.
func refChecksum(src, dst string, seg []byte) uint16 {
	zeroed := append([]byte(nil), seg...)
	zeroed[15], zeroed[16] = 0, 0
	return ^uint16(refSum(refSum(refSum(0, []byte(src)), []byte(dst)), zeroed))
}

// randAddr returns an address-like string of 0–20 bytes, so both odd and
// even pseudo-header lengths occur.
func randAddr(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(21))
	rng.Read(b)
	return string(b)
}

// TestChecksumMatchesRFC1071 checks the 64-bit kernel against the 16-bit
// reference loop: the word sum over random buffers of 0–1417 bytes, with
// all-ones buffers to stress the end-around carry, and the full checksum
// over random segments of every length a packet carries (header plus a
// payload of 0 to MSS bytes) between random addresses.
func TestChecksumMatchesRFC1071(t *testing.T) {
	rng := rand.New(rand.NewSource(1071))
	for i := 0; i < 3000; i++ {
		b := make([]byte, rng.Intn(segHeaderLen+MSS+1))
		if i%10 == 0 {
			for j := range b {
				b[j] = 0xff
			}
		} else {
			rng.Read(b)
		}
		if got, want := fold(sum64(0, b)), uint16(refSum(0, b)); got != want {
			t.Fatalf("word sum over %d bytes = %#04x, want %#04x", len(b), got, want)
		}
		seg := make([]byte, segHeaderLen+rng.Intn(MSS+1))
		rng.Read(seg)
		src, dst := randAddr(rng), randAddr(rng)
		if got, want := checksum(src, dst, seg), refChecksum(src, dst, seg); got != want {
			t.Fatalf("checksum over %d bytes between %q and %q = %#04x, want %#04x", len(seg), src, dst, got, want)
		}
	}
}

// TestEverySingleBitFlipRefused flips each bit of encoded segments with
// odd and even payload lengths — the checksum's own bytes and the words it
// straddles (bytes 14–17) included — and requires every flip refused.
func TestEverySingleBitFlipRefused(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64} {
		payload := bytes.Repeat([]byte{0xa5}, n)
		seg := &Segment{SrcPort: 40001, DstPort: 443, Seq: 7, Ack: 9, Flags: FlagACK | FlagPSH, Window: 65535, Payload: payload}
		wire := seg.Encode("10.0.0.2", "10.8.0.1")
		if _, err := DecodeSegment("10.0.0.2", "10.8.0.1", wire); err != nil {
			t.Fatal(err)
		}
		for bit := 0; bit < 8*len(wire); bit++ {
			flipped := append([]byte(nil), wire...)
			flipped[bit/8] ^= 1 << (bit % 8)
			if _, err := DecodeSegment("10.0.0.2", "10.8.0.1", flipped); err == nil {
				t.Fatalf("payload %d bytes: flip of bit %d (byte %d) accepted", n, bit%8, bit/8)
			}
		}
	}
}

// linkedPair connects two fresh hosts by a Wi-Fi link and returns the
// link with both ends of an established connection.
func linkedPair(t *testing.T) (*netsim.Net, *netsim.Link, *Conn, *Conn) {
	t.Helper()
	n := netsim.New(5)
	a, b := n.AddHost("a"), n.AddHost("b")
	link := n.Connect(a, b, netsim.WiFi)
	l, err := NewStack(n, b).Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	var acc *Conn
	l.OnAccept = func(c *Conn) { acc = c }
	c, err := NewStack(n, a).Dial("b", 80)
	if err != nil {
		t.Fatal(err)
	}
	if !n.RunUntil(func() bool { return c.Established() && acc != nil }) {
		t.Fatal("handshake did not complete")
	}
	return n, link, c, acc
}

// TestRetransmitSendsOriginalBytes: Write keeps no reference to the
// caller's slice. The caller overwrites it right after Write and the
// segment is lost; the RTO resend still delivers the bytes as written.
func TestRetransmitSendsOriginalBytes(t *testing.T) {
	n, link, c, s := linkedPair(t)
	buf := []byte("original bytes")
	link.DropNext(1)
	if err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXXXXXXXXXXX")
	start := n.Now()
	if !n.RunUntil(func() bool { return s.Readable() == len(buf) }) {
		t.Fatal("segment never redelivered")
	}
	if n.Now()-start < c.stack.RetransmitTimeout {
		t.Fatalf("delivered after %v, before any RTO", n.Now()-start)
	}
	if link.Dropped != 1 {
		t.Fatalf("dropped %d packets, want 1", link.Dropped)
	}
	if got := string(drain(s)); got != "original bytes" {
		t.Fatalf("resend delivered %q", got)
	}
}

// TestReceiveBufferReuseAndCompaction: once every buffered byte is
// discarded the storage is reused from its start, and a delivery that
// would not fit behind unconsumed bytes first moves them to the front
// instead of growing the storage.
func TestReceiveBufferReuseAndCompaction(t *testing.T) {
	n, _, c, s := linkedPair(t)
	send := func(b []byte) {
		t.Helper()
		want := s.Readable() + len(b)
		if err := c.Write(b); err != nil {
			t.Fatal(err)
		}
		if !n.RunUntil(func() bool { return s.Readable() == want }) {
			t.Fatalf("%d bytes never arrived", len(b))
		}
	}
	first := bytes.Repeat([]byte{'a'}, 1000)
	send(first)
	storage := &s.recvBuf[:1][0]
	s.Discard(400)
	if got := s.Buffered(); len(got) != 600 || &got[0] != &s.recvBuf[400] {
		t.Fatal("Discard moved or copied the unconsumed bytes")
	}
	s.Discard(600)
	if s.Readable() != 0 || len(s.recvBuf) != 0 {
		t.Fatalf("%d bytes left after discarding everything", s.Readable())
	}
	send([]byte("reuse"))
	if &s.Buffered()[0] != storage {
		t.Fatal("emptied storage was not reused")
	}

	// Fill the storage to its capacity, consume most of it, then deliver
	// more than fits behind the rest: the rest moves to the front.
	s.Discard(s.Readable())
	capBefore := cap(s.recvBuf)
	send(bytes.Repeat([]byte{'b'}, capBefore))
	if cap(s.recvBuf) != capBefore {
		t.Fatalf("storage grew from %d to %d on an exact fill", capBefore, cap(s.recvBuf))
	}
	s.Discard(capBefore - 10)
	tail := bytes.Repeat([]byte{'c'}, 100)
	send(tail)
	if s.recvOff != 0 || cap(s.recvBuf) != capBefore || &s.recvBuf[:1][0] != storage {
		t.Fatalf("no compaction: offset %d, cap %d (was %d)", s.recvOff, cap(s.recvBuf), capBefore)
	}
	want := append(bytes.Repeat([]byte{'b'}, 10), tail...)
	if got := drain(s); !bytes.Equal(got, want) {
		t.Fatalf("compacted buffer holds %q", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("discarding more than is buffered did not panic")
		}
	}()
	s.Discard(1)
}
