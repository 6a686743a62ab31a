package netsim

import (
	"fmt"
	"time"
)

// Profile describes the performance characteristics of a link. The two
// built-in profiles correspond to the paper's Wi-Fi and 3G environments
// (§6.2): 3G has much higher latency, lower bandwidth, and a radio that takes
// time to promote from idle to the high-power connected state.
type Profile struct {
	Name string
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Jitter is the maximum random extra delay added per packet.
	Jitter time.Duration
	// Bandwidth is in bytes per second; 0 means infinite.
	Bandwidth float64
	// Loss is the probability in [0,1) that a packet is dropped.
	Loss float64
	// PromotionDelay models cellular radio state promotion: the extra delay
	// on the first packet after the link has been idle for IdleTimeout.
	PromotionDelay time.Duration
	// IdleTimeout is how long the link stays "hot" after the last packet.
	IdleTimeout time.Duration
}

// Common profiles, calibrated to the era of the paper (2014-2015 campus
// Wi-Fi and HSPA 3G).
var (
	// WiFi is a low-latency local wireless network to a nearby trusted node.
	WiFi = Profile{
		Name:      "wifi",
		Latency:   4 * time.Millisecond,
		Jitter:    2 * time.Millisecond,
		Bandwidth: 2.5e6, // 20 Mbps
	}
	// ThreeG is an HSPA cellular link with radio promotion delays.
	ThreeG = Profile{
		Name:           "3g",
		Latency:        65 * time.Millisecond,
		Jitter:         25 * time.Millisecond,
		Bandwidth:      750e3, // 6 Mbps HSUPA
		PromotionDelay: 600 * time.Millisecond,
		IdleTimeout:    4 * time.Second,
	}
	// Wired is the trusted-node-to-origin-server path (datacenter quality).
	Wired = Profile{
		Name:      "wired",
		Latency:   10 * time.Millisecond,
		Jitter:    2 * time.Millisecond,
		Bandwidth: 12.5e6, // 100 Mbps
	}
	// Loopback connects a host to itself with negligible cost.
	Loopback = Profile{Name: "loopback", Latency: 10 * time.Microsecond}
)

// Packet is the unit of transfer between hosts. Payload semantics belong to
// the layer above (tcpsim frames segments into packets).
//
// A packet's payload is never written after Send, by the sender or by
// anyone the packet reaches. That rule is what lets the layers above share
// one buffer without copying: a sender may keep a slice of the payload it
// sent (tcpsim's retransmission queue does), and a receiver may parse it
// in place and hold slices of it for as long as it likes.
type Packet struct {
	Src, Dst string // host addresses ("IP"s)
	Payload  []byte
}

// Size returns the simulated wire size of the packet including a nominal
// IP-like header.
func (p *Packet) Size() int { return len(p.Payload) + 40 }

// Link is a bidirectional pipe between two hosts.
type Link struct {
	net      *Net
	a, b     *Host
	prof     Profile
	lastUse  time.Duration
	everUsed bool
	// busyUntil models serialization: a link transmits one packet at a time
	// per direction; subsequent packets queue behind it.
	busyUntil [2]time.Duration
	// lastArrival keeps each direction FIFO: jitter delays packets but a
	// link never reorders them.
	lastArrival [2]time.Duration
	// Delivered counts packets that made it across (per direction a->b, b->a).
	Delivered [2]uint64
	// Dropped counts lost packets.
	Dropped uint64
	// down partitions the link (fault injection, see fault.go); dropNext
	// is the remaining drop-N-then-heal budget.
	down     bool
	dropNext int
}

// Profile returns the link's performance profile.
func (l *Link) Profile() Profile { return l.prof }

// transmit schedules delivery of pkt from src across the link.
func (l *Link) transmit(src *Host, pkt *Packet) {
	dir := 0
	dst := l.b
	if src == l.b {
		dir = 1
		dst = l.a
	}
	n := l.net

	if l.down {
		l.Dropped++
		return
	}
	if l.dropNext > 0 {
		l.dropNext--
		l.Dropped++
		return
	}
	if l.prof.Loss > 0 && n.rng.Float64() < l.prof.Loss {
		l.Dropped++
		return
	}

	delay := l.prof.Latency
	if l.prof.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(l.prof.Jitter)))
	}
	// Radio promotion: first packet after an idle period pays extra.
	if l.prof.PromotionDelay > 0 {
		if !l.everUsed || n.Now()-l.lastUse > l.prof.IdleTimeout {
			delay += l.prof.PromotionDelay
		}
	}
	// Serialization delay and head-of-line queueing.
	var ser time.Duration
	if l.prof.Bandwidth > 0 {
		ser = time.Duration(float64(pkt.Size()) / l.prof.Bandwidth * float64(time.Second))
	}
	start := n.Now()
	if l.busyUntil[dir] > start {
		start = l.busyUntil[dir]
	}
	done := start + ser
	l.busyUntil[dir] = done
	l.everUsed = true
	l.lastUse = done

	arrival := done + delay
	if arrival < l.lastArrival[dir] {
		arrival = l.lastArrival[dir]
	}
	l.lastArrival[dir] = arrival
	total := arrival - n.Now()
	n.Schedule(total, func() {
		n.nmsgs++
		n.nbytes += uint64(pkt.Size())
		l.Delivered[dir]++
		if n.tracer != nil {
			n.tracer.record(TraceEvent{At: n.Now(), Src: pkt.Src, Dst: pkt.Dst, Size: pkt.Size()})
		}
		l.lastUse = n.Now()
		dst.deliver(pkt)
	})
}

// Host is a network endpoint with an address and an inbound packet handler.
type Host struct {
	net     *Net
	addr    string
	links   map[string]*Link // peer addr -> link
	handler func(*Packet)
	// egressFilter, when true, drops outbound packets whose source address
	// does not match the host (anti-spoofing). The paper requires the
	// trusted node to be deployed without egress filtering (§5.4).
	egressFilter bool
	// Sent/Received count packets from this host's perspective.
	Sent, Received uint64
	SentBytes      uint64
	ReceivedBytes  uint64
	// down crashes the host (fault injection, see fault.go): nothing is
	// sent and inbound packets are silently lost.
	down bool
}

// AddHost creates a host with the given address. Addresses must be unique.
func (n *Net) AddHost(addr string) *Host {
	if _, dup := n.hosts[addr]; dup {
		panic(fmt.Sprintf("netsim: duplicate host address %q", addr))
	}
	h := &Host{net: n, addr: addr, links: make(map[string]*Link)}
	n.hosts[addr] = h
	return h
}

// Host returns the host with the given address, or nil.
func (n *Net) Host(addr string) *Host { return n.hosts[addr] }

// Connect joins two hosts with a link of the given profile. At most one link
// may exist per host pair.
func (n *Net) Connect(a, b *Host, prof Profile) *Link {
	if a == b {
		panic("netsim: cannot link a host to itself; loopback is implicit")
	}
	if _, dup := a.links[b.addr]; dup {
		panic(fmt.Sprintf("netsim: hosts %s and %s already linked", a.addr, b.addr))
	}
	l := &Link{net: n, a: a, b: b, prof: prof}
	a.links[b.addr] = l
	b.links[a.addr] = l
	n.links = append(n.links, l)
	return l
}

// Addr returns the host's address.
func (h *Host) Addr() string { return h.addr }

// Handle registers the inbound packet handler. Exactly one handler is
// active; layers above (tcpsim) demultiplex further.
func (h *Host) Handle(fn func(*Packet)) { h.handler = fn }

// Handler returns the currently installed inbound handler (nil if none); it
// lets middleboxes such as the payload-replacement engine chain in front of
// an existing stack.
func (h *Host) Handler() func(*Packet) { return h.handler }

// Link returns the link to the peer address, or nil if not directly linked.
func (h *Host) Link(peer string) *Link { return h.links[peer] }

// Send transmits a packet. The source address is forced to this host unless
// spoofing is intentionally allowed by SendRaw (TinMan's payload replacement
// requires the trusted node to send packets bearing the device's source
// address, §5.4 "Network policy on the trusted node").
func (h *Host) Send(pkt *Packet) error {
	pkt.Src = h.addr
	return h.SendRaw(pkt)
}

// SendRaw transmits a packet without rewriting the source address. If the
// host enforces egress filtering and the source is spoofed, the packet is
// dropped and an error returned.
func (h *Host) SendRaw(pkt *Packet) error {
	if h.down {
		// A crashed host sends nothing; the packet vanishes without error,
		// like a kernel whose NIC driver is gone.
		return nil
	}
	if h.egressFilter && pkt.Src != h.addr {
		return fmt.Errorf("netsim: host %s egress filter dropped spoofed packet from %s", h.addr, pkt.Src)
	}
	if pkt.Dst == h.addr {
		// Implicit loopback.
		h.net.Schedule(Loopback.Latency, func() {
			if h.net.tracer != nil {
				h.net.tracer.record(TraceEvent{At: h.net.Now(), Src: pkt.Src, Dst: pkt.Dst, Size: pkt.Size(), Note: "loopback"})
			}
			h.deliver(pkt)
		})
		h.Sent++
		h.SentBytes += uint64(pkt.Size())
		return nil
	}
	l := h.links[pkt.Dst]
	if l == nil {
		// One-hop routing through a host that links to both endpoints is not
		// modeled; topologies in this repo are fully meshed where needed.
		return fmt.Errorf("netsim: host %s has no link to %s", h.addr, pkt.Dst)
	}
	h.Sent++
	h.SentBytes += uint64(pkt.Size())
	l.transmit(h, pkt)
	return nil
}

// SetEgressFilter enables or disables source-address verification on egress.
func (h *Host) SetEgressFilter(on bool) { h.egressFilter = on }

func (h *Host) deliver(pkt *Packet) {
	if h.down {
		// Crashed hosts lose inbound traffic, including packets that were
		// already in flight when the crash fired.
		return
	}
	h.Received++
	h.ReceivedBytes += uint64(pkt.Size())
	if h.handler != nil {
		h.handler(pkt)
	}
}
