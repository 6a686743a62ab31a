package tcpsim

import (
	"fmt"
)

// Conn is one endpoint of a TCP connection. The API is non-blocking: Write
// queues data for transmission, Buffered shows whatever has arrived and
// Discard releases what the reader consumed, and the caller advances the
// netsim event loop to make progress (e.g. with
// net.RunUntil(func() bool { return conn.Readable() > 0 })).
type Conn struct {
	stack      *Stack
	key        connKey
	state      State
	remoteAddr string
	listener   *Listener

	// send side
	sndUna   uint32 // oldest unacknowledged
	sndNxt   uint32 // next sequence to send
	inFlight []*Segment
	rtoArmed bool
	// rtoBackoff doubles on stalled timeouts and resets on ACK progress.
	rtoBackoff int
	// rtoLastUna detects progress between timer firings.
	rtoLastUna uint32

	// receive side: recvBuf[recvOff:] is received and not yet discarded.
	rcvNxt  uint32
	recvBuf []byte
	recvOff int
	peerFin bool

	// OnReadable, when set, fires whenever new data is appended to the
	// receive buffer.
	OnReadable func()
}

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// Established reports whether the handshake completed.
func (c *Conn) Established() bool { return c.state == StateEstablished || c.state == StateCloseWait }

// Closed reports whether the connection is fully closed or reset.
func (c *Conn) Closed() bool { return c.state == StateClosed }

// LocalPort returns the local port.
func (c *Conn) LocalPort() uint16 { return c.key.localPort }

// RemoteAddr returns the peer address and port.
func (c *Conn) RemoteAddr() (string, uint16) { return c.remoteAddr, c.key.remotePort }

// Readable returns the number of buffered received bytes.
func (c *Conn) Readable() int { return len(c.recvBuf) - c.recvOff }

// PeerClosed reports whether the peer sent FIN (EOF after draining).
func (c *Conn) PeerClosed() bool { return c.peerFin }

// Buffered returns the received bytes not yet discarded, in stream order.
// The slice aliases the connection's receive buffer: it stays valid until
// the next Discard or the next delivery, so a reader copies out whatever
// it keeps before discarding it.
func (c *Conn) Buffered() []byte { return c.recvBuf[c.recvOff:] }

// Discard releases the first n buffered bytes. Once every byte is consumed
// the storage is reused from its start.
func (c *Conn) Discard(n int) {
	if n < 0 || n > c.Readable() {
		panic(fmt.Sprintf("tcpsim: discard %d of %d buffered bytes", n, c.Readable()))
	}
	c.recvOff += n
	if c.recvOff == len(c.recvBuf) {
		c.recvBuf, c.recvOff = c.recvBuf[:0], 0
	}
}

// buffer appends an in-order payload to the receive buffer, first moving
// the unconsumed bytes to the front when the storage would otherwise have
// to grow.
func (c *Conn) buffer(p []byte) {
	if c.recvOff > 0 && len(c.recvBuf)+len(p) > cap(c.recvBuf) {
		n := copy(c.recvBuf, c.recvBuf[c.recvOff:])
		c.recvBuf, c.recvOff = c.recvBuf[:n], 0
	}
	c.recvBuf = append(c.recvBuf, p...)
}

// Write queues data on the connection, segmenting at MSS. Each segment's
// wire buffer takes its copy of b; the connection keeps no reference to b.
func (c *Conn) Write(b []byte) error {
	if !c.Established() {
		return fmt.Errorf("tcpsim: write on %v connection", c.state)
	}
	for len(b) > 0 {
		n := len(b)
		if n > MSS {
			n = MSS
		}
		c.sendFlags(FlagACK|FlagPSH, b[:n])
		b = b[n:]
	}
	return nil
}

// Close sends FIN. Data already queued is still retransmitted as needed.
func (c *Conn) Close() {
	switch c.state {
	case StateEstablished:
		c.state = StateFinWait
		c.sendFlags(FlagFIN|FlagACK, nil)
	case StateCloseWait:
		c.state = StateClosed
		c.sendFlags(FlagFIN|FlagACK, nil)
		c.teardown()
	case StateClosed:
	default:
		c.state = StateClosed
		c.teardown()
	}
}

// Abort sends RST and drops the connection.
func (c *Conn) Abort() {
	c.sendFlags(FlagRST|FlagACK, nil)
	c.state = StateClosed
	c.teardown()
}

func (c *Conn) teardown() {
	delete(c.stack.conns, c.key)
}

// sendFlags transmits a segment carrying a copy of payload, consuming one
// sequence number for SYN and FIN. The copy is made once, into the wire
// buffer the packet leaves in; the segment's Payload aliases it, so the
// retransmission queue holds no second copy.
func (c *Conn) sendFlags(flags uint8, payload []byte) {
	wire := make([]byte, segHeaderLen+len(payload))
	seg := &Segment{
		SrcPort: c.key.localPort,
		DstPort: c.key.remotePort,
		Seq:     c.sndNxt,
		Ack:     c.rcvNxt,
		Flags:   flags,
		Window:  65535,
		Payload: wire[segHeaderLen:],
	}
	copy(seg.Payload, payload)
	consumed := uint32(len(payload))
	if flags&(FlagSYN|FlagFIN) != 0 {
		consumed++
	}
	c.sndNxt += consumed
	if consumed > 0 {
		c.track(seg)
	}
	c.stack.sendSegment(c.remoteAddr, seg, wire)
}

// track adds a sequence-consuming segment to the retransmission queue.
func (c *Conn) track(seg *Segment) {
	c.inFlight = append(c.inFlight, seg)
	c.armRTO()
}

func (c *Conn) armRTO() {
	if c.rtoArmed {
		return
	}
	c.rtoArmed = true
	c.rtoLastUna = c.sndUna
	timeout := c.stack.RetransmitTimeout << uint(c.rtoBackoff)
	c.stack.net.Schedule(timeout, c.onRTO)
}

// onRTO fires the retransmission timer. If ACKs made progress since arming,
// the peer is alive and draining a long burst: just re-arm. Otherwise
// retransmit only the oldest unacked segment (not the whole window — a
// go-back-N blast on a long-fat link melts into a retransmission storm) and
// back off exponentially. The timer re-arms only while data remains in
// flight, so a drained simulation terminates.
func (c *Conn) onRTO() {
	c.rtoArmed = false
	if c.state == StateClosed || len(c.inFlight) == 0 {
		return
	}
	if c.sndUna != c.rtoLastUna {
		c.rtoBackoff = 0
		c.armRTO()
		return
	}
	seg := c.inFlight[0]
	seg.Ack = c.rcvNxt // refresh cumulative ack
	c.stack.sendSegment(c.remoteAddr, seg, nil)
	if c.rtoBackoff < 4 {
		c.rtoBackoff++
	}
	c.armRTO()
}

// handleSegment is the per-connection receive path.
func (c *Conn) handleSegment(seg *Segment) {
	if seg.Flags&FlagRST != 0 {
		c.state = StateClosed
		c.teardown()
		return
	}

	switch c.state {
	case StateSynSent:
		if seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK != 0 && seg.Ack == c.sndNxt {
			c.rcvNxt = seg.Seq + 1
			c.ackUpTo(seg.Ack)
			c.state = StateEstablished
			c.sendFlags(FlagACK, nil)
		}
		return

	case StateSynReceived:
		if seg.Flags&FlagACK != 0 && seg.Ack == c.sndNxt {
			c.ackUpTo(seg.Ack)
			c.state = StateEstablished
			if c.listener != nil {
				if c.listener.OnAccept != nil {
					c.listener.OnAccept(c)
				} else {
					c.listener.backlog = append(c.listener.backlog, c)
				}
			}
			// Fall through: the ACK completing the handshake may carry data.
		} else {
			return
		}
	}

	if seg.Flags&FlagACK != 0 {
		c.ackUpTo(seg.Ack)
	}

	advanced := false
	if len(seg.Payload) > 0 {
		switch {
		case seg.Seq == c.rcvNxt:
			c.buffer(seg.Payload)
			c.rcvNxt += uint32(len(seg.Payload))
			advanced = true
			if c.OnReadable != nil {
				c.OnReadable()
			}
		case seqLess(seg.Seq, c.rcvNxt):
			// Duplicate (retransmission already consumed): re-ack below.
		default:
			// Out-of-order segment: dropped; the peer's RTO recovers. A
			// full reassembly queue is unnecessary for the in-order links
			// this simulator models.
		}
		// Acknowledge received data (or re-ack duplicates).
		c.sendFlags(FlagACK, nil)
	}

	if seg.Flags&FlagFIN != 0 && (seg.Seq == c.rcvNxt || advanced) {
		c.rcvNxt++
		c.peerFin = true
		switch c.state {
		case StateEstablished:
			c.state = StateCloseWait
		case StateFinWait:
			c.state = StateClosed
		}
		c.sendFlags(FlagACK, nil)
		if c.state == StateClosed {
			c.teardown()
		}
	}
}

// ackUpTo drops acknowledged segments from the retransmission queue. The
// queue is in sequence order, so the acknowledged segments are a prefix.
func (c *Conn) ackUpTo(ack uint32) {
	if seqLess(c.sndUna, ack) {
		c.sndUna = ack
		c.rtoBackoff = 0
	}
	n := 0
	for _, seg := range c.inFlight {
		end := seg.Seq + uint32(len(seg.Payload))
		if seg.Flags&(FlagSYN|FlagFIN) != 0 {
			end++
		}
		if seqLess(ack, end) {
			break
		}
		n++
	}
	clear(c.inFlight[:n])
	if n == len(c.inFlight) {
		c.inFlight = c.inFlight[:0]
	} else {
		c.inFlight = c.inFlight[n:]
	}
}

// seqLess compares sequence numbers with wraparound (RFC 1982 style).
func seqLess(a, b uint32) bool { return int32(b-a) > 0 }
