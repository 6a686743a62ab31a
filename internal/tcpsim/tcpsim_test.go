package tcpsim

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"tinman/internal/netsim"
)

// world builds a standard three-host topology: device, trusted node, and an
// origin server, fully meshed.
type world struct {
	net    *netsim.Net
	device *Stack
	node   *Stack
	server *Stack
}

func newWorld(t testing.TB, prof netsim.Profile) *world {
	t.Helper()
	n := netsim.New(11)
	dev := n.AddHost("10.0.0.2")
	node := n.AddHost("10.8.0.1")
	srv := n.AddHost("93.184.216.34")
	n.Connect(dev, node, prof)
	n.Connect(dev, srv, prof)
	n.Connect(node, srv, netsim.Wired)
	return &world{
		net:    n,
		device: NewStack(n, dev),
		node:   NewStack(n, node),
		server: NewStack(n, srv),
	}
}

// connect dials from the device to the server and runs the handshake.
func (w *world) connect(t testing.TB, port uint16) (*Conn, *Conn) {
	t.Helper()
	l, err := w.server.Listen(port)
	if err != nil {
		t.Fatal(err)
	}
	var accepted *Conn
	l.OnAccept = func(c *Conn) { accepted = c }
	c, err := w.device.Dial("93.184.216.34", port)
	if err != nil {
		t.Fatal(err)
	}
	if !w.net.RunUntil(func() bool { return c.Established() && accepted != nil }) {
		t.Fatal("handshake did not complete")
	}
	return c, accepted
}

// drain copies out and discards everything buffered on c.
func drain(c *Conn) []byte {
	b := append([]byte(nil), c.Buffered()...)
	c.Discard(len(b))
	return b
}

func TestHandshake(t *testing.T) {
	w := newWorld(t, netsim.WiFi)
	c, s := w.connect(t, 443)
	if c.State() != StateEstablished || s.State() != StateEstablished {
		t.Fatalf("states: %v / %v", c.State(), s.State())
	}
	if w.net.Now() < netsim.WiFi.Latency {
		t.Fatal("handshake cost no simulated time")
	}
}

func TestDataTransferBothDirections(t *testing.T) {
	w := newWorld(t, netsim.WiFi)
	c, s := w.connect(t, 80)

	if err := c.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	if !w.net.RunUntil(func() bool { return s.Readable() >= 18 }) {
		t.Fatal("request did not arrive")
	}
	if got := string(drain(s)); got != "GET / HTTP/1.1\r\n\r\n" {
		t.Fatalf("server got %q", got)
	}
	if err := s.Write([]byte("HTTP/1.1 200 OK\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	if !w.net.RunUntil(func() bool { return c.Readable() > 0 }) {
		t.Fatal("response did not arrive")
	}
	if got := string(drain(c)); !strings.HasPrefix(got, "HTTP/1.1 200") {
		t.Fatalf("client got %q", got)
	}
}

func TestLargeTransferSegmentsAndReassembles(t *testing.T) {
	w := newWorld(t, netsim.WiFi)
	c, s := w.connect(t, 80)
	payload := bytes.Repeat([]byte("0123456789abcdef"), 1000) // 16 KB > MSS
	if err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	if !w.net.RunUntil(func() bool { return s.Readable() >= len(payload) }) {
		t.Fatalf("only %d/%d bytes arrived", s.Readable(), len(payload))
	}
	if got := drain(s); !bytes.Equal(got, payload) {
		t.Fatal("reassembled payload differs")
	}
}

func TestRetransmissionOnLoss(t *testing.T) {
	n := netsim.New(3)
	dev := n.AddHost("a")
	srv := n.AddHost("b")
	// 20% loss: retransmission must recover everything.
	n.Connect(dev, srv, netsim.Profile{Name: "lossy", Latency: 2 * time.Millisecond, Loss: 0.2})
	ds := NewStack(n, dev)
	ss := NewStack(n, srv)
	l, _ := ss.Listen(80)
	var acc *Conn
	l.OnAccept = func(c *Conn) { acc = c }
	c, _ := ds.Dial("b", 80)
	if !n.RunUntil(func() bool { return c.Established() && acc != nil }) {
		t.Fatal("handshake never completed despite retransmission")
	}
	payload := bytes.Repeat([]byte("x"), 10*MSS)
	c.Write(payload)
	if !n.RunUntil(func() bool { return acc.Readable() >= len(payload) }) {
		t.Fatalf("lossy transfer incomplete: %d/%d", acc.Readable(), len(payload))
	}
}

func TestCloseHandshake(t *testing.T) {
	w := newWorld(t, netsim.WiFi)
	c, s := w.connect(t, 80)
	c.Write([]byte("bye"))
	c.Close()
	if !w.net.RunUntil(func() bool { return s.PeerClosed() && s.Readable() == 3 }) {
		t.Fatal("FIN or data lost")
	}
	s.Close()
	if !w.net.RunUntil(func() bool { return c.Closed() && s.Closed() }) {
		t.Fatalf("connections not closed: %v / %v", c.State(), s.State())
	}
}

func TestRSTOnNoListener(t *testing.T) {
	w := newWorld(t, netsim.WiFi)
	c, err := w.device.Dial("93.184.216.34", 9999)
	if err != nil {
		t.Fatal(err)
	}
	if !w.net.RunUntil(func() bool { return c.Closed() }) {
		t.Fatal("SYN to closed port did not get RST")
	}
}

func TestWriteBeforeEstablishedFails(t *testing.T) {
	w := newWorld(t, netsim.WiFi)
	w.server.Listen(80)
	c, _ := w.device.Dial("93.184.216.34", 80)
	if err := c.Write([]byte("early")); err == nil {
		t.Fatal("write on syn-sent connection accepted")
	}
}

func TestDuplicateListenFails(t *testing.T) {
	w := newWorld(t, netsim.WiFi)
	if _, err := w.server.Listen(80); err != nil {
		t.Fatal(err)
	}
	if _, err := w.server.Listen(80); err == nil {
		t.Fatal("duplicate listen accepted")
	}
}

func TestSegmentCodecRoundTrip(t *testing.T) {
	seg := &Segment{
		SrcPort: 40001, DstPort: 443, Seq: 12345, Ack: 6789,
		Flags: FlagACK | FlagPSH, Window: 65535, Payload: []byte("payload"),
	}
	buf := seg.Encode("10.0.0.2", "93.184.216.34")
	got, err := DecodeSegment("10.0.0.2", "93.184.216.34", buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != seg.Seq || got.Ack != seg.Ack || got.Flags != seg.Flags || !bytes.Equal(got.Payload, seg.Payload) {
		t.Fatalf("round trip: %+v", got)
	}
	if got.String() == "" || got.flagString() == "" {
		t.Fatal("empty diagnostics")
	}
}

func TestChecksumCatchesCorruptionAndSpoofedAddresses(t *testing.T) {
	seg := &Segment{SrcPort: 1, DstPort: 2, Payload: []byte("data")}
	buf := seg.Encode("a", "b")
	// Bit flip in payload.
	bad := append([]byte(nil), buf...)
	bad[len(bad)-1] ^= 0x40
	if _, err := DecodeSegment("a", "b", bad); err == nil {
		t.Fatal("corrupted segment accepted")
	}
	// The checksum covers the pseudo-header: decoding under different
	// addresses fails, so naive payload replacement without re-checksumming
	// would be detected.
	if _, err := DecodeSegment("a", "c", buf); err == nil {
		t.Fatal("segment accepted under wrong pseudo-header")
	}
	if _, err := DecodeSegment("a", "b", buf[:10]); err == nil {
		t.Fatal("truncated segment accepted")
	}
}

// --- filter and payload replacement ---

func TestFilterRuleValidation(t *testing.T) {
	w := newWorld(t, netsim.WiFi)
	if err := w.device.AddEgressRule(&FilterRule{Name: "x"}); err == nil {
		t.Fatal("rule without matcher accepted")
	}
	if err := w.device.AddEgressRule(&FilterRule{
		Name: "x", Match: func(*Segment, string, string) bool { return true }, Verdict: VerdictRedirect,
	}); err == nil {
		t.Fatal("redirect rule without target accepted")
	}
}

func TestFilterDrop(t *testing.T) {
	w := newWorld(t, netsim.WiFi)
	c, s := w.connect(t, 80)
	w.device.AddEgressRule(&FilterRule{
		Name:    "drop-evil",
		Match:   func(seg *Segment, src, dst string) bool { return bytes.HasPrefix(seg.Payload, []byte("EVIL")) },
		Verdict: VerdictDrop,
	})
	c.Write([]byte("EVIL payload"))
	w.net.RunFor(200 * time.Millisecond)
	if s.Readable() != 0 {
		t.Fatal("dropped payload arrived")
	}
	w.device.RemoveEgressRule("drop-evil")
	c.Write([]byte("fine"))
	if !w.net.RunUntil(func() bool { return s.Readable() > 0 }) {
		t.Fatal("payload blocked after rule removal")
	}
}

func TestPayloadReplacementEndToEnd(t *testing.T) {
	// The fig 8 flow: device marks a segment, the filter redirects it to
	// the node, the node swaps the placeholder payload for the secret one
	// and forwards it to the server with the device's source address.
	w := newWorld(t, netsim.WiFi)
	c, s := w.connect(t, 443)

	const mark = 0x7F
	placeholder := []byte{mark, 'P', 'L', 'A', 'C', 'E'}
	secret := []byte{mark, 'S', 'E', 'C', 'R', 'T'}

	if err := w.device.AddEgressRule(MarkedRecordRule(mark, "10.8.0.1")); err != nil {
		t.Fatal(err)
	}
	rep := NewReplacer(w.node.Host(), func(origSrc, origDst string, seg *Segment) ([]byte, error) {
		if origSrc != "10.0.0.2" || origDst != "93.184.216.34" {
			t.Errorf("replacer saw %s->%s", origSrc, origDst)
		}
		if !bytes.Equal(seg.Payload, placeholder) {
			t.Errorf("replacer payload %q", seg.Payload)
		}
		return secret, nil
	})

	// Unmarked traffic flows directly.
	c.Write([]byte("normal"))
	if !w.net.RunUntil(func() bool { return s.Readable() == 6 }) {
		t.Fatal("unmarked segment blocked")
	}
	drain(s)

	// Marked traffic takes the detour and arrives replaced.
	c.Write(placeholder)
	if !w.net.RunUntil(func() bool { return s.Readable() == len(secret) }) {
		t.Fatal("marked segment never arrived at server")
	}
	if got := drain(s); !bytes.Equal(got, secret) {
		t.Fatalf("server got %q, want replaced payload", got)
	}
	if rep.Replaced != 1 {
		t.Fatalf("replaced = %d", rep.Replaced)
	}

	// The TCP session continues seamlessly: the server's ACK matches the
	// device's idea of its own sequence numbers.
	s.Write([]byte("ok"))
	if !w.net.RunUntil(func() bool { return c.Readable() == 2 }) {
		t.Fatal("session desynchronized after replacement")
	}
	// And further device traffic keeps flowing.
	c.Write([]byte("after"))
	if !w.net.RunUntil(func() bool { return s.Readable() == 5 }) {
		t.Fatal("post-replacement traffic blocked")
	}
}

func TestReplacementLengthMismatchRejected(t *testing.T) {
	w := newWorld(t, netsim.WiFi)
	c, s := w.connect(t, 443)
	w.device.AddEgressRule(MarkedRecordRule(0x7F, "10.8.0.1"))
	var gotErr error
	rep := NewReplacer(w.node.Host(), func(origSrc, origDst string, seg *Segment) ([]byte, error) {
		return []byte{0x7F, 1}, nil // wrong length
	})
	rep.OnError = func(err error) { gotErr = err }
	c.Write([]byte{0x7F, 'a', 'b', 'c'})
	w.net.RunFor(100 * time.Millisecond)
	if gotErr == nil || !strings.Contains(gotErr.Error(), "length") {
		t.Fatalf("err = %v, want length mismatch", gotErr)
	}
	if s.Readable() != 0 {
		t.Fatal("mismatched replacement forwarded anyway")
	}
}

func TestEgressFilteredNodeBreaksReplacement(t *testing.T) {
	// §5.4: the trusted node must sit on a host without egress filtering,
	// else the spoofed-source forward is dropped as an IP spoofing attempt.
	w := newWorld(t, netsim.WiFi)
	c, s := w.connect(t, 443)
	w.device.AddEgressRule(MarkedRecordRule(0x7F, "10.8.0.1"))
	w.node.Host().SetEgressFilter(true)
	var gotErr error
	rep := NewReplacer(w.node.Host(), func(origSrc, origDst string, seg *Segment) ([]byte, error) {
		return seg.Payload, nil
	})
	rep.OnError = func(err error) { gotErr = err }
	c.Write([]byte{0x7F, 'x'})
	w.net.RunFor(100 * time.Millisecond)
	if gotErr == nil || !strings.Contains(gotErr.Error(), "egress filter") {
		t.Fatalf("err = %v, want egress filter failure", gotErr)
	}
	_ = s
}

func TestReplacerChainsToNodeStack(t *testing.T) {
	// The replacer must not break the node's own TCP service.
	w := newWorld(t, netsim.WiFi)
	NewReplacer(w.node.Host(), func(origSrc, origDst string, seg *Segment) ([]byte, error) {
		return seg.Payload, nil
	})
	l, _ := w.node.Listen(7000)
	var acc *Conn
	l.OnAccept = func(c *Conn) { acc = c }
	c, _ := w.device.Dial("10.8.0.1", 7000)
	if !w.net.RunUntil(func() bool { return c.Established() && acc != nil }) {
		t.Fatal("node stack unreachable behind replacer")
	}
	c.Write([]byte("state-sync"))
	if !w.net.RunUntil(func() bool { return acc.Readable() == 10 }) {
		t.Fatal("node stack data path broken behind replacer")
	}
}

func TestEncapRoundTripProperty(t *testing.T) {
	prop := func(src, dst string, payload []byte, seq, ack uint32) bool {
		if len(src) == 0 || len(dst) == 0 {
			return true
		}
		if len(src) > 255 {
			src = src[:255]
		}
		if len(dst) > 255 {
			dst = dst[:255]
		}
		seg := &Segment{SrcPort: 1, DstPort: 2, Seq: seq, Ack: ack, Flags: FlagACK, Payload: payload}
		enc := encapsulate(src, dst, seg)
		if !isEncap(enc) {
			return false
		}
		gs, gd, got, err := decapsulate(enc)
		return err == nil && gs == src && gd == dst &&
			got.Seq == seq && got.Ack == ack && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecapsulateErrors(t *testing.T) {
	if _, _, _, err := decapsulate([]byte("nope")); err == nil {
		t.Fatal("non-encap accepted")
	}
	if _, _, _, err := decapsulate([]byte("RDIR")); err == nil {
		t.Fatal("truncated encap accepted")
	}
	if _, _, _, err := decapsulate([]byte{'R', 'D', 'I', 'R', 0, 1, 'a', 0, 1}); err == nil {
		t.Fatal("truncated address accepted")
	}
}

func TestSeqLessWraparound(t *testing.T) {
	if !seqLess(0xFFFFFFF0, 5) {
		t.Fatal("wraparound comparison broken")
	}
	if seqLess(5, 0xFFFFFFF0) {
		t.Fatal("wraparound comparison inverted")
	}
	if seqLess(7, 7) {
		t.Fatal("equal is not less")
	}
}

func TestStateStrings(t *testing.T) {
	for s := StateClosed; s <= StateCloseWait; s++ {
		if s.String() == "" {
			t.Fatal("empty state name")
		}
	}
	if State(99).String() == "" {
		t.Fatal("unknown state unnamed")
	}
}
