package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"tinman/internal/cor"
	"tinman/internal/fault"
	"tinman/internal/netsim"
	"tinman/internal/node"
	"tinman/internal/nodeproto"
	"tinman/internal/obs"
	"tinman/internal/taint"
	"tinman/internal/tcpsim"
	"tinman/internal/tlssim"
)

// ErrControlTimeout marks a control round trip (or control connect) that
// exceeded its deadline. Match with errors.Is.
var ErrControlTimeout = errors.New("core: control request timed out")

// ControlTimeoutError carries the detail of one control-plane deadline
// expiry; it unwraps to ErrControlTimeout.
type ControlTimeoutError struct {
	// Op is the control operation that timed out ("" for a connect).
	Op nodeproto.Op
	// Wait is how long the device waited.
	Wait time.Duration
}

func (e *ControlTimeoutError) Error() string {
	if e.Op == "" {
		return fmt.Sprintf("core: device: control connect timed out after %v", e.Wait)
	}
	return fmt.Sprintf("core: device: control request (%s) timed out after %v", e.Op, e.Wait)
}

func (e *ControlTimeoutError) Unwrap() error { return ErrControlTimeout }

// Handshake frame types for TLS-over-TCP between the device (or any client)
// and origin servers. Exported so the apps package speaks the same
// conventions.
const (
	HSClientHello uint8 = 0x21
	HSServerHello uint8 = 0x22
	HSKeyExchange uint8 = 0x23
)

// Device is the mobile side: per-app VMs with asymmetric tainting,
// placeholder materialization, the control-plane client, the modified SSL
// library (TLS ≥ 1.1 enforced) and the marked-record egress filter.
type Device struct {
	w      *World
	ID     string
	Host   *netsim.Host
	Stack  *tcpsim.Stack
	policy taint.Policy

	ctrl *tcpsim.Conn

	// Fault-tolerance machinery for the control channel (§5.4): requests
	// carry deterministic device-minted IDs (<device>#n) so retries after
	// ambiguous failures execute at most once on the node; the breaker
	// flips the device into cor-degraded mode when the node is plainly
	// gone. seq numbers every request sent, warm-up chunks included.
	seq     uint64
	retries uint64
	breaker *fault.Breaker
	backoff fault.Backoff

	// Responses are matched by Seq: awaiting names the request roundTrip
	// waits on (0 when none) and reply holds its response once pumped;
	// warmAcks routes warm-up chunk acknowledgements to the app driver
	// whose chunk they answer.
	awaiting uint64
	reply    *nodeproto.Response
	warmAcks map[uint64]warmAck

	catalog  map[string]cor.DeviceView
	https    map[string]*httpsConn
	baseline map[string]string
	apps     map[string]*App

	filterInstalled bool
}

func newDevice(w *World, host *netsim.Host, id string, pol taint.Policy, baseline map[string]string) *Device {
	return &Device{
		w:        w,
		ID:       id,
		Host:     host,
		Stack:    tcpsim.NewStack(w.Net, host),
		policy:   pol,
		catalog:  make(map[string]cor.DeviceView),
		https:    make(map[string]*httpsConn),
		baseline: baseline,
		apps:     make(map[string]*App),
		warmAcks: make(map[uint64]warmAck),
		breaker: fault.NewBreaker(fault.BreakerConfig{
			Threshold: w.Fault.BreakerThreshold,
			Cooldown:  w.Fault.BreakerCooldown,
			Now:       w.Net.Now, // breaker cooldowns run on virtual time
		}),
		backoff: fault.Backoff{
			Base:   w.Fault.RetryBackoffBase,
			Max:    w.Fault.RetryBackoffMax,
			Jitter: 0.2,
			Rand:   w.Net.Rand().Float64, // seeded: retry schedules reproduce
		},
	}
}

// connectControl dials the trusted node's control port and fetches the cor
// catalog.
func (d *Device) connectControl() error {
	if err := d.dialControl(); err != nil {
		return err
	}
	return d.RefreshCatalog()
}

// dialControl establishes a fresh control connection, bounded by the
// configured connect timeout. RunUntil only evaluates its condition at
// event boundaries, so a no-op wake event is parked at the deadline to
// guarantee the timeout is observed even on a silent network.
func (d *Device) dialControl() error {
	c, err := d.Stack.Dial(NodeAddr, ControlPort)
	if err != nil {
		return err
	}
	deadline := d.w.Net.Now() + d.w.Fault.ConnectTimeout
	d.w.Net.Schedule(d.w.Fault.ConnectTimeout, func() {})
	d.w.Net.RunUntil(func() bool {
		return c.Established() || c.Closed() || d.w.Net.Now() >= deadline
	})
	if !c.Established() {
		c.Abort() // stop the handshake retransmit timer for good
		return &ControlTimeoutError{Wait: d.w.Fault.ConnectTimeout}
	}
	d.ctrl = c
	return nil
}

// reconnectControl replaces a dead control connection with a fresh one.
// The old connection is aborted first: an abandoned simulated TCP
// connection would otherwise re-arm its retransmission timer forever.
// Bytes still buffered on the old connection go with it — any reply they
// carried belongs to a request the caller already gave up on, and the
// node's replay window answers its retry instead — and so do the warm-up
// acks still owed on it.
func (d *Device) reconnectControl() error {
	if d.ctrl != nil && !d.ctrl.Closed() {
		d.ctrl.Abort()
	}
	d.ctrl = nil
	clear(d.warmAcks)
	return d.dialControl()
}

// ControlRetries counts control-plane request attempts beyond each
// request's first (diagnostics; chaos tests use it to prove a fault
// actually bit).
func (d *Device) ControlRetries() uint64 { return d.retries }

// Degraded reports cor-degraded mode (§5.4): the circuit breaker is
// refusing node traffic, so cor-touching operations fail fast with
// node.ErrNodeUnavailable while untainted work proceeds normally. The
// device leaves the mode automatically once a post-cooldown probe reaches
// the node.
func (d *Device) Degraded() bool {
	return d.breaker.State() != fault.BreakerClosed
}

// RefreshCatalog re-fetches the device-visible cor views; call after
// registering new cors on the node.
func (d *Device) RefreshCatalog() error {
	resp, err := d.request(&nodeproto.Request{Op: nodeproto.OpCatalog})
	if err != nil {
		return err
	}
	if err := resp.Err(); err != nil {
		return err
	}
	for _, e := range resp.Catalog {
		d.catalog[e.ID] = cor.DeviceView{ID: e.ID, Placeholder: e.Placeholder,
			Description: e.Description, Bit: e.Bit, Class: cor.Class(e.Class)}
	}
	// Class changes ride the catalog: refresh every app endpoint's
	// server-only mask so the next capture honors them.
	mask := d.restrictedMask()
	for _, a := range d.apps {
		a.ep.Restricted = mask
	}
	return nil
}

// restrictedMask mirrors cor.Store.RestrictedMask from the device's view of
// the catalog: the union of taint bits whose cors are server-only. Objects
// carrying these bits never ship in DSM payloads from this side either —
// the placeholder is worthless to an attacker, but a symmetric filter keeps
// the wire invariant simple: restricted state does not travel, period.
func (d *Device) restrictedMask() taint.Tag {
	var t taint.Tag
	for _, v := range d.catalog {
		if v.Class == cor.ClassServerOnly {
			t = t.Union(taint.Bit(v.Bit))
		}
	}
	return t
}

// Catalog lists the cor descriptions the selection widget shows (§4.1).
func (d *Device) Catalog() []cor.DeviceView {
	out := make([]cor.DeviceView, 0, len(d.catalog))
	for _, v := range d.catalog {
		out = append(out, v)
	}
	return out
}

// warmAck is what a warm-up chunk's acknowledgement reports back to its
// app's driver.
type warmAck struct {
	app   *App
	epoch uint64
	index int
}

// pump drains control-connection bytes into parsed responses: the one
// roundTrip awaits, or a warm-up ack, which goes straight to the owning
// app's driver. Anything else answers a request the device gave up on and
// is dropped.
func (d *Device) pump() error {
	if d.ctrl == nil {
		return nil
	}
	for {
		resp := new(nodeproto.Response)
		n, err := readMsg(d.ctrl, resp)
		if err != nil || n == 0 {
			return err
		}
		if d.awaiting != 0 && resp.Seq == d.awaiting && d.reply == nil {
			d.reply = resp
			d.w.noteDeviceTransfer(n)
		} else if ack, ok := d.warmAcks[resp.Seq]; ok {
			// Losing an ack only costs the speculation, never correctness.
			delete(d.warmAcks, resp.Seq)
			d.w.noteDeviceTransfer(n)
			ack.app.warmupAck(ack.epoch, ack.index, resp.OK)
		}
	}
}

// request performs a synchronous control round trip with the full §5.4
// fault-tolerance stack: a device-minted request ID makes retries safe
// (the node executes each ID at most once), each attempt runs under a
// deadline, failed attempts back off and reconnect, and the circuit
// breaker fails cor-touching work fast once the node is plainly gone. The
// error reports transport failure only; the node's own refusal comes back
// as a response whose Err is non-nil.
func (d *Device) request(req *nodeproto.Request) (*nodeproto.Response, error) {
	if d.ctrl == nil && d.breaker.State() == fault.BreakerClosed {
		return nil, fmt.Errorf("core: device: control plane not connected (TinMan disabled?)")
	}
	if !d.breaker.Allow() {
		return nil, fmt.Errorf("core: device: %w (circuit breaker open)", node.ErrNodeUnavailable)
	}
	// The control round trip is one span; the node joins the trace via the
	// IDs stamped into the request.
	var rpc *obs.Span
	if tr := d.w.Obs; tr.Enabled() {
		rpc = tr.StartSpan(obs.PhaseControlRPC, obs.OpName(string(req.Op)))
		req.TraceID, req.SpanID = rpc.Trace().Hex(), rpc.ID().Hex()
	}
	d.seq++
	req.Seq = d.seq
	req.ReqID = fmt.Sprintf("%s#%d", d.ID, d.seq)
	wire, err := encodeMsg(req)
	if err != nil {
		d.breaker.Success() // local encoding error, not a node failure
		rpc.End()
		return nil, err
	}
	var lastErr error
	attempts := 0
	for attempt := 0; attempt < d.w.Fault.MaxAttempts; attempt++ {
		attempts = attempt
		if attempt > 0 {
			d.retries++
			d.w.Net.RunFor(d.backoff.Delay(attempt - 1))
			if err := d.reconnectControl(); err != nil {
				lastErr = err
				d.breaker.Failure()
				if d.breaker.State() == fault.BreakerOpen {
					break
				}
				continue
			}
		} else if d.ctrl == nil {
			// Re-entry from degraded mode: the breaker admitted a probe but
			// the previous failure tore the connection down.
			if err := d.reconnectControl(); err != nil {
				lastErr = err
				d.breaker.Failure()
				d.endRequestSpan(rpc, 0, err)
				return nil, fmt.Errorf("core: device: %w: %w", node.ErrNodeUnavailable, lastErr)
			}
		}
		resp, err := d.roundTrip(wire, req)
		if err == nil {
			d.breaker.Success()
			d.endRequestSpan(rpc, attempt, nil)
			return resp, nil
		}
		lastErr = err
		d.breaker.Failure()
		if d.breaker.State() == fault.BreakerOpen {
			break
		}
	}
	d.endRequestSpan(rpc, attempts, lastErr)
	return nil, fmt.Errorf("core: device: %w: %w", node.ErrNodeUnavailable, lastErr)
}

// endRequestSpan closes a control_rpc span, recording retries beyond the
// first attempt and the outcome's error class.
func (d *Device) endRequestSpan(rpc *obs.Span, retries int, err error) {
	if rpc == nil {
		return
	}
	if retries > 0 {
		rpc.Add(obs.Retries(retries))
	}
	if err != nil {
		class := obs.ErrUnavailable
		if errors.Is(err, ErrControlTimeout) {
			class = obs.ErrTimeout
		}
		rpc.Add(obs.Err(class))
	}
	rpc.End()
}

// roundTrip writes one encoded request and steps the simulation until its
// response, a transport failure, or the per-attempt deadline — a no-op
// wake event parked at the deadline guarantees RunUntil observes it even
// when the network has gone completely silent.
func (d *Device) roundTrip(wire []byte, req *nodeproto.Request) (*nodeproto.Response, error) {
	if err := d.ctrl.Write(wire); err != nil {
		return nil, err
	}
	d.w.noteDeviceTransfer(len(wire))
	ctrl := d.ctrl
	d.awaiting, d.reply = req.Seq, nil
	waitStart := d.w.Net.Now()
	deadline := waitStart + d.w.Fault.RequestTimeout
	d.w.Net.Schedule(d.w.Fault.RequestTimeout, func() {})
	var pumpErr error
	d.w.Net.RunUntil(func() bool {
		if err := d.pump(); err != nil {
			pumpErr = err
			return true
		}
		return d.reply != nil || ctrl.Closed() || d.w.Net.Now() >= deadline
	})
	d.awaiting = 0
	// The COMET client does not sleep while the node works: the DSM thread
	// polls the socket and services GC/bookkeeping, keeping the CPU at
	// partial duty for the whole wait — including waits that end in failure.
	if wait := d.w.Net.Now() - waitStart; wait > 0 {
		d.w.CPU.NoteActive(waitStart, wait/2)
	}
	if pumpErr != nil {
		return nil, pumpErr
	}
	if resp := d.reply; resp != nil {
		d.reply = nil
		return resp, nil
	}
	if ctrl.Closed() {
		return nil, fmt.Errorf("core: device: control connection reset")
	}
	return nil, &ControlTimeoutError{Op: req.Op, Wait: d.w.Net.Now() - waitStart}
}

// --- HTTPS client (the "modified SSL library") ---

// httpsConn is an established TLS session to an origin server.
type httpsConn struct {
	domain string
	addr   string
	port   uint16
	tcp    *tcpsim.Conn
	sess   *tlssim.Session
}

// httpsDial returns a cached TLS connection to the domain, establishing TCP
// and the TLS handshake on first use. The client config enforces TLS ≥ 1.1
// when TinMan is enabled (§3.2).
func (d *Device) httpsDial(domain string) (*httpsConn, error) {
	if hc, ok := d.https[domain]; ok && hc.tcp.Established() {
		return hc, nil
	}
	addr, err := d.w.Resolve(domain)
	if err != nil {
		return nil, err
	}
	const port = 443
	tcp, err := d.Stack.Dial(addr, port)
	if err != nil {
		return nil, err
	}
	if !d.w.Net.RunUntil(tcp.Established) {
		return nil, fmt.Errorf("core: device: TCP to %s never established", domain)
	}

	minVer := tlssim.Version(0)
	if d.w.enabled {
		minVer = tlssim.TLS11
	}
	ch, cst, err := tlssim.NewClientHello(tlssim.ClientConfig{MinVersion: minVer})
	if err != nil {
		return nil, err
	}
	hc := &httpsConn{domain: domain, addr: addr, port: port, tcp: tcp}
	chJSON, _ := json.Marshal(ch)
	if err := tcp.Write(EncodeFrame(HSClientHello, chJSON)); err != nil {
		return nil, err
	}
	d.w.noteDeviceTransfer(len(chJSON))

	shFrame, err := hc.awaitFrame(d.w.Net)
	if err != nil {
		return nil, fmt.Errorf("core: device: handshake with %s: %v", domain, err)
	}
	if shFrame.Type != HSServerHello {
		return nil, fmt.Errorf("core: device: %s sent %d, want ServerHello", domain, shFrame.Type)
	}
	var sh tlssim.ServerHello
	if err := json.Unmarshal(shFrame.Payload, &sh); err != nil {
		return nil, err
	}
	cke, sess, err := tlssim.ClientFinish(cst, &sh)
	if err != nil {
		return nil, fmt.Errorf("core: device: handshake with %s: %v", domain, err)
	}
	ckeJSON, _ := json.Marshal(cke)
	if err := tcp.Write(EncodeFrame(HSKeyExchange, ckeJSON)); err != nil {
		return nil, err
	}
	d.w.noteDeviceTransfer(len(ckeJSON))
	hc.sess = sess
	d.https[domain] = hc
	return hc, nil
}

// awaitFrame steps the simulation until one handshake frame arrives, and
// returns it with a payload of its own.
func (hc *httpsConn) awaitFrame(n *netsim.Net) (Frame, error) {
	var got Frame
	var ferr error
	ok := n.RunUntil(func() bool {
		f, size, err := NextFrame(hc.tcp.Buffered())
		if err != nil {
			ferr = err
			return true
		}
		if size > 0 {
			got = Frame{Type: f.Type, Payload: bytes.Clone(f.Payload)}
			hc.tcp.Discard(size)
			return true
		}
		return hc.tcp.Closed()
	})
	if ferr != nil {
		return Frame{}, ferr
	}
	if !ok || got.Type == 0 {
		return Frame{}, fmt.Errorf("handshake frame never arrived")
	}
	return got, nil
}

// awaitRecord steps the simulation until a complete TLS record arrives, and
// opens it.
func (hc *httpsConn) awaitRecord(n *netsim.Net) ([]byte, error) {
	// complete returns the length of the whole record buffered at the
	// front, or 0.
	complete := func() int {
		b := hc.tcp.Buffered()
		if len(b) < 5 {
			return 0
		}
		need := 5 + int(uint16(b[3])<<8|uint16(b[4]))
		if len(b) < need {
			return 0
		}
		return need
	}
	ok := n.RunUntil(func() bool { return complete() > 0 || hc.tcp.Closed() })
	need := complete()
	if !ok && need == 0 {
		return nil, fmt.Errorf("core: device: response from %s never arrived", hc.domain)
	}
	if need == 0 {
		return nil, fmt.Errorf("core: device: connection to %s closed mid-record", hc.domain)
	}
	_, plaintext, _, err := hc.sess.Open(hc.tcp.Buffered()[:need])
	if err != nil {
		return nil, fmt.Errorf("core: device: opening record from %s: %v", hc.domain, err)
	}
	hc.tcp.Discard(need)
	return plaintext, nil
}

// ensureFilter installs the marked-record redirect rule (the iptables rule
// of §3.6).
func (d *Device) ensureFilter() error {
	if d.filterInstalled {
		return nil
	}
	if err := d.Stack.AddEgressRule(tcpsim.MarkedRecordRule(byte(tlssim.TypeMarkedCor), NodeAddr)); err != nil {
		return err
	}
	d.filterInstalled = true
	return nil
}
