package tcpsim

import (
	"fmt"
	"sort"
	"time"

	"tinman/internal/netsim"
)

// State is a TCP connection state (reduced set).
type State uint8

const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynReceived
	StateEstablished
	StateFinWait
	StateCloseWait
)

var stateNames = [...]string{
	StateClosed: "closed", StateListen: "listen", StateSynSent: "syn-sent",
	StateSynReceived: "syn-received", StateEstablished: "established",
	StateFinWait: "fin-wait", StateCloseWait: "close-wait",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// connKey identifies a connection from the local stack's perspective.
type connKey struct {
	localPort  uint16
	remoteAddr string
	remotePort uint16
}

// Stack is one host's TCP endpoint.
type Stack struct {
	net       *netsim.Net
	host      *netsim.Host
	listeners map[uint16]*Listener
	conns     map[connKey]*Conn
	egress    []*FilterRule
	nextPort  uint16
	// RetransmitTimeout configures the (single) retransmission timer.
	RetransmitTimeout time.Duration
	// Segments counts sent segments for stats.
	Segments uint64
}

// NewStack attaches a TCP stack to the host, taking over its packet handler.
func NewStack(n *netsim.Net, host *netsim.Host) *Stack {
	st := &Stack{
		net:               n,
		host:              host,
		listeners:         make(map[uint16]*Listener),
		conns:             make(map[connKey]*Conn),
		nextPort:          40000,
		RetransmitTimeout: time.Second,
	}
	host.Handle(st.onPacket)
	return st
}

// Host returns the underlying netsim host.
func (st *Stack) Host() *netsim.Host { return st.host }

// Net returns the simulation universe.
func (st *Stack) Net() *netsim.Net { return st.net }

// Listener accepts inbound connections on a port.
type Listener struct {
	stack   *Stack
	port    uint16
	backlog []*Conn
	// OnAccept, when set, is invoked for each newly established inbound
	// connection instead of queuing it in the backlog.
	OnAccept func(*Conn)
}

// Listen opens a listening port.
func (st *Stack) Listen(port uint16) (*Listener, error) {
	if _, dup := st.listeners[port]; dup {
		return nil, fmt.Errorf("tcpsim: %s: port %d already listening", st.host.Addr(), port)
	}
	l := &Listener{stack: st, port: port}
	st.listeners[port] = l
	return l, nil
}

// Accept dequeues an established inbound connection, or nil.
func (l *Listener) Accept() *Conn {
	if len(l.backlog) == 0 {
		return nil
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	return c
}

// Close stops listening.
func (l *Listener) Close() { delete(l.stack.listeners, l.port) }

// Dial starts a connection to remoteAddr:port. The returned Conn is in
// SynSent; run the simulation until Established() before writing.
func (st *Stack) Dial(remoteAddr string, port uint16) (*Conn, error) {
	localPort := st.allocPort()
	key := connKey{localPort: localPort, remoteAddr: remoteAddr, remotePort: port}
	if _, dup := st.conns[key]; dup {
		return nil, fmt.Errorf("tcpsim: connection %v already exists", key)
	}
	isn := uint32(st.net.Rand().Int63n(1 << 30))
	c := &Conn{
		stack:      st,
		key:        key,
		state:      StateSynSent,
		sndNxt:     isn,
		sndUna:     isn,
		remoteAddr: remoteAddr,
	}
	st.conns[key] = c
	c.sendFlags(FlagSYN, nil)
	return c, nil
}

func (st *Stack) allocPort() uint16 {
	for {
		st.nextPort++
		if st.nextPort < 40000 {
			st.nextPort = 40000
		}
		p := st.nextPort
		used := false
		for k := range st.conns {
			if k.localPort == p {
				used = true
				break
			}
		}
		if !used {
			return p
		}
	}
}

// onPacket demultiplexes inbound packets to connections and listeners.
func (st *Stack) onPacket(pkt *netsim.Packet) {
	// Redirected encapsulated packets are not TCP for us; a Replacer host
	// installs its own handler, so arriving here means misdelivery: drop.
	if isEncap(pkt.Payload) {
		return
	}
	seg, err := DecodeSegment(pkt.Src, pkt.Dst, pkt.Payload)
	if err != nil {
		return // corrupt segments are dropped silently, as in real TCP
	}
	key := connKey{localPort: seg.DstPort, remoteAddr: pkt.Src, remotePort: seg.SrcPort}
	if c, ok := st.conns[key]; ok {
		c.handleSegment(seg)
		return
	}
	if l, ok := st.listeners[seg.DstPort]; ok && seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK == 0 {
		st.acceptSyn(l, pkt.Src, seg)
		return
	}
	// No socket: answer non-RST segments with RST.
	if seg.Flags&FlagRST == 0 {
		rst := &Segment{
			SrcPort: seg.DstPort, DstPort: seg.SrcPort,
			Seq: seg.Ack, Ack: seg.Seq + 1, Flags: FlagRST | FlagACK,
		}
		st.sendSegment(pkt.Src, rst, nil)
	}
}

// acceptSyn creates the passive side of a connection.
func (st *Stack) acceptSyn(l *Listener, remoteAddr string, syn *Segment) {
	key := connKey{localPort: syn.DstPort, remoteAddr: remoteAddr, remotePort: syn.SrcPort}
	isn := uint32(st.net.Rand().Int63n(1 << 30))
	c := &Conn{
		stack:      st,
		key:        key,
		state:      StateSynReceived,
		sndNxt:     isn,
		sndUna:     isn,
		rcvNxt:     syn.Seq + 1,
		remoteAddr: remoteAddr,
		listener:   l,
	}
	st.conns[key] = c
	c.sendFlags(FlagSYN|FlagACK, nil)
}

// sendSegment applies egress filtering and transmits. wire, when not nil,
// is the buffer whose bytes from segHeaderLen on hold seg.Payload: the
// header goes in front of the payload there, so a passing segment leaves
// without another copy. A nil wire (a resend, an RST) is encoded afresh.
func (st *Stack) sendSegment(dst string, seg *Segment, wire []byte) {
	st.Segments++
	for _, rule := range st.egress {
		if !rule.Match(seg, st.host.Addr(), dst) {
			continue
		}
		switch rule.Verdict {
		case VerdictDrop:
			return
		case VerdictRedirect:
			// Encapsulate the original packet so the replacement engine can
			// recover the intended destination (§3.3 step 3).
			enc := encapsulate(st.host.Addr(), dst, seg)
			st.host.Send(&netsim.Packet{Dst: rule.RedirectTo, Payload: enc})
			return
		}
	}
	if wire == nil {
		wire = seg.Encode(st.host.Addr(), dst)
	} else {
		seg.encodeHeader(st.host.Addr(), dst, wire)
	}
	// Errors (no route) surface as silent drops, like a black-holed packet;
	// retransmission logic deals with the fallout.
	_ = st.host.Send(&netsim.Packet{Dst: dst, Payload: wire})
}

// AbortAll resets every connection on the stack, modeling the TCP state
// loss of a host crash or reboot: peers of established connections get a
// RST, pending retransmission timers die with their connections.
// Iteration is in sorted key order so simulations stay deterministic.
func (st *Stack) AbortAll() {
	keys := make([]connKey, 0, len(st.conns))
	for k := range st.conns {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.localPort != b.localPort {
			return a.localPort < b.localPort
		}
		if a.remoteAddr != b.remoteAddr {
			return a.remoteAddr < b.remoteAddr
		}
		return a.remotePort < b.remotePort
	})
	for _, k := range keys {
		if c, ok := st.conns[k]; ok {
			c.Abort()
		}
	}
}
