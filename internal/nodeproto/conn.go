package nodeproto

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tinman/internal/node"
	"tinman/internal/obs"
	"tinman/internal/policy"
)

// connBufSize sizes the buffered reader/writer on each connection; large
// enough that a full pipeline batch moves in one syscall.
const connBufSize = 64 << 10

// DenialError is returned when the node's policy engine refused the
// operation. It is extractable with errors.As so callers can branch on
// policy denials without string matching.
type DenialError struct {
	// Reason is the machine-readable policy reason (policy.Reason.String()),
	// kept for humans and logs.
	Reason string
	// Code is the stable numeric reason (policy.Reason.Code()) decoded from
	// the wire; it is what Is matches on.
	Code int
	// Message is the node's full error text.
	Message string
}

func (e *DenialError) Error() string {
	return fmt.Sprintf("nodeproto: denied (%s): %s", e.Reason, e.Message)
}

// Is maps a wire denial onto the node package's sentinels, so
// errors.Is(err, node.ErrDenied) — or node.ErrRevoked, node.ErrMalware —
// behaves identically whether the denial happened in-process or over TCP.
// The numeric code resolves the reason; a code this build does not know
// matches only node.ErrDenied.
func (e *DenialError) Is(target error) bool {
	if target == node.ErrDenied {
		return true
	}
	r, ok := policy.ReasonFromCode(e.Code)
	return ok && target == node.SentinelForReason(r)
}

// IsDenied reports whether err is a policy denial and returns it.
func IsDenied(err error) (*DenialError, bool) {
	var d *DenialError
	if errors.As(err, &d) {
		return d, true
	}
	return nil, false
}

// NotOwnerError is returned when a fleet member refused a device-keyed
// request because the device's shard is owned by another member. Owner is
// the redirect hint: resend the identical request (same ReqID, so the
// at-most-once window still applies) to that member.
type NotOwnerError struct {
	Owner   string
	Message string
}

func (e *NotOwnerError) Error() string {
	return fmt.Sprintf("nodeproto: not owner (try %s): %s", e.Owner, e.Message)
}

// Is maps the wire refusal onto node.ErrNotOwner, matching the in-process
// error surface.
func (e *NotOwnerError) Is(target error) bool { return target == node.ErrNotOwner }

// RedirectOwner extracts the redirect hint from a not-owner refusal.
func RedirectOwner(err error) (string, bool) {
	var n *NotOwnerError
	if errors.As(err, &n) {
		return n.Owner, true
	}
	return "", false
}

// ServiceError is any other failure the node reported. Code carries the
// stable node.Code of the service error, so errors.Is(err,
// node.ErrExecution) — or node.ErrWarmStale, node.ErrUnknownApp — behaves
// identically in-process and over the wire.
type ServiceError struct {
	Code    int
	Message string
}

func (e *ServiceError) Error() string { return "nodeproto: " + e.Message }

// Is matches the node sentinel the code names; an unknown code matches
// nothing.
func (e *ServiceError) Is(target error) bool {
	s := node.SentinelForCode(e.Code)
	return s != nil && s == target
}

// Err maps a refusal onto its typed client error — *DenialError,
// *NotOwnerError or *ServiceError — and returns nil when r is OK.
func (r *Response) Err() error {
	switch {
	case r.OK:
		return nil
	case r.Denial != "":
		return &DenialError{Reason: r.Denial, Code: r.DenialCode - 1, Message: r.Error}
	case r.Owner != "":
		return &NotOwnerError{Owner: r.Owner, Message: r.Error}
	default:
		return &ServiceError{Code: r.ErrorCode, Message: r.Error}
	}
}

// errClosed is the terminal error after Close.
var errClosed = errors.New("nodeproto: client closed")

// result resolves one in-flight request.
type result struct {
	resp *Response
	err  error
}

// waiter is one in-flight request: its result channel plus whether the
// request's bytes reached the wire, which decides how a transport failure
// is reported (ErrAmbiguous vs ErrNeverSent).
type waiter struct {
	ch   chan result
	sent bool
}

// pendingWrite is one request queued for the writer goroutine.
type pendingWrite struct {
	req *Request
	seq uint64
}

// conn is one pipelined connection to a trusted-node server: a writer
// goroutine streams request frames onto it and a reader goroutine
// demultiplexes responses to per-Seq waiters, so many calls can be in
// flight at once. A response whose Seq matches no in-flight request is
// discarded. Methods are safe for concurrent use. ReconnectClient owns
// the conns it dials and replaces one once it dies.
type conn struct {
	nc  net.Conn
	bw  *bufio.Writer // owned by the writer goroutine
	br  *bufio.Reader // owned by the reader goroutine
	seq atomic.Uint64

	sendq   chan pendingWrite
	closing chan struct{}

	mu       sync.Mutex // guards waiters, err, isClosed
	waiters  map[uint64]*waiter
	err      error // terminal transport error
	isClosed bool
}

// dialer returns a Dial func for ReconnectConfig that opens TCP
// connections to addr.
func dialer(addr string, timeout time.Duration) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		nc, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, fmt.Errorf("nodeproto: dialing %s: %w", addr, err)
		}
		return nc, nil
	}
}

// newConn starts the pipeline over nc (tests use net.Pipe).
func newConn(nc net.Conn) *conn {
	c := &conn{
		nc:      nc,
		bw:      bufio.NewWriterSize(nc, connBufSize),
		br:      bufio.NewReaderSize(nc, connBufSize),
		sendq:   make(chan pendingWrite, 64),
		closing: make(chan struct{}),
		waiters: make(map[uint64]*waiter),
	}
	go c.writer()
	go c.reader()
	return c
}

// alive reports whether the connection has hit no terminal transport
// error and is not closed. Note the lag inherent to TCP: a peer that
// vanished without a FIN or RST stays alive until a write or read against
// it actually fails.
func (c *conn) alive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err == nil && !c.isClosed
}

// close closes the connection and fails any in-flight requests.
func (c *conn) close() error {
	c.mu.Lock()
	already := c.isClosed
	c.isClosed = true
	c.mu.Unlock()
	if already {
		return nil
	}
	close(c.closing)
	err := c.nc.Close()
	c.failAll(errClosed)
	return err
}

// writer drains sendq onto the buffered connection, flushing only when
// the queue runs dry: under load a whole batch of pipelined frames leaves
// in one syscall. After a transport failure it keeps draining, failing
// each queued request, so senders never block on a dead connection.
func (c *conn) writer() {
	var dead error
	write := func(pw pendingWrite) {
		if dead != nil {
			c.resolve(pw.seq, result{err: transportErr(false, dead)})
			return
		}
		// Mark before writing: once any bytes may have left, a failure on
		// this request is ambiguous — the node may have executed it.
		c.markSent(pw.seq)
		if err := WriteMessage(c.bw, pw.req); err != nil {
			dead = err
			c.resolve(pw.seq, result{err: transportErr(true, err)})
			c.failAll(err)
			c.nc.Close()
		}
	}
	for {
		select {
		case <-c.closing:
			return
		case pw := <-c.sendq:
			write(pw)
			// Drain whatever else is queued before paying for a flush. The
			// Gosched between passes lets producer goroutines that are
			// about to enqueue (common on few cores) actually do so, so a
			// whole pipeline batch leaves in one syscall.
			for pass := 0; pass < 2; pass++ {
			drain:
				for {
					select {
					case pw := <-c.sendq:
						write(pw)
					default:
						break drain
					}
				}
				if pass == 0 {
					runtime.Gosched()
				}
			}
			if dead == nil {
				if err := c.bw.Flush(); err != nil {
					dead = err
					c.failAll(err)
					c.nc.Close()
				}
			}
		}
	}
}

// reader demultiplexes responses to waiters by Seq. A response for a Seq
// with no waiter — a request abandoned by its caller, or a stray — is
// dropped.
func (c *conn) reader() {
	for {
		resp := new(Response)
		if err := ReadMessage(c.br, resp); err != nil {
			c.mu.Lock()
			closed := c.isClosed
			c.mu.Unlock()
			if closed {
				err = errClosed
			}
			c.failAll(err)
			return
		}
		c.resolve(resp.Seq, result{resp: resp})
	}
}

// takeWaiterLocked removes and returns the waiter for seq, if any.
func (c *conn) takeWaiterLocked(seq uint64) *waiter {
	w := c.waiters[seq]
	delete(c.waiters, seq)
	return w
}

// markSent flags seq's waiter as on-the-wire, so a later transport failure
// reports it as ErrAmbiguous instead of ErrNeverSent.
func (c *conn) markSent(seq uint64) {
	c.mu.Lock()
	if w := c.waiters[seq]; w != nil {
		w.sent = true
	}
	c.mu.Unlock()
}

// resolve fails (or answers) a single in-flight request.
func (c *conn) resolve(seq uint64, r result) {
	c.mu.Lock()
	w := c.takeWaiterLocked(seq)
	c.mu.Unlock()
	if w != nil {
		w.ch <- r
	}
}

// failAll resolves every waiter with a transport error, classified per
// waiter: requests already on the wire fail ambiguous, queued ones fail
// never-sent. Reading w.sent without the lock is safe because the map swap
// below makes later markSent calls miss these waiters entirely.
func (c *conn) failAll(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	waiters := c.waiters
	c.waiters = make(map[uint64]*waiter)
	c.mu.Unlock()
	for _, w := range waiters {
		w.ch <- result{err: transportErr(w.sent, err)}
	}
}

// waiterPool recycles the one-shot result channels roundTrip waits on.
// A waiter receives exactly one message — takeWaiterLocked removes it
// from the map, so whichever goroutine took it is the only sender — which
// means a channel is drained and reusable once roundTrip reads from it.
var waiterPool = sync.Pool{New: func() any { return make(chan result, 1) }}

// roundTrip sends one request and waits for its correlated response. A
// cancelled or expired ctx abandons the wait promptly: the waiter is
// detached so a late server response is simply discarded by the reader,
// and the connection stays usable for subsequent requests.
func (c *conn) roundTrip(ctx context.Context, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	seq := c.seq.Add(1)
	req.Seq = seq
	w := &waiter{ch: waiterPool.Get().(chan result)}

	c.mu.Lock()
	if c.isClosed || c.err != nil {
		err := c.err
		c.mu.Unlock()
		waiterPool.Put(w.ch)
		if err == nil {
			err = errClosed
		}
		// The request was refused before queueing: provably never sent.
		return nil, transportErr(false, err)
	}
	c.waiters[seq] = w
	c.mu.Unlock()

	select {
	case c.sendq <- pendingWrite{req: req, seq: seq}:
	case <-c.closing:
		c.resolve(seq, result{err: transportErr(false, errClosed)})
	case <-ctx.Done():
		c.abandon(seq, w)
		return nil, ctx.Err()
	}

	select {
	case r := <-w.ch:
		waiterPool.Put(w.ch)
		if r.err != nil {
			return nil, r.err
		}
		return r.resp, nil
	case <-ctx.Done():
		c.abandon(seq, w)
		return nil, ctx.Err()
	}
}

// abandon detaches a cancelled request's waiter. If the waiter is still
// registered, no resolver can reach it anymore once it is removed under
// the lock; otherwise a resolver already owns the channel and will send
// exactly one result, which is drained so the channel can be pooled.
func (c *conn) abandon(seq uint64, w *waiter) {
	c.mu.Lock()
	still := c.waiters[seq] != nil
	if still {
		c.takeWaiterLocked(seq)
	}
	c.mu.Unlock()
	if !still {
		<-w.ch
	}
	waiterPool.Put(w.ch)
}

// do performs one round trip and maps protocol-level failures to errors.
// On failure the response is never returned: callers get (nil, err), with
// the node's refusal typed by Response.Err.
//
// do is also the client's tracing point: when the caller's context carries
// a span, the round trip becomes a control_rpc child whose IDs are stamped
// onto the wire request (joining the node's span to the trace).
func (c *conn) do(ctx context.Context, req *Request) (*Response, error) {
	var rpc *obs.Span
	if parent := obs.SpanFromContext(ctx); parent != nil {
		rpc = parent.Child(obs.PhaseControlRPC, obs.OpName(string(req.Op)))
		req.TraceID = rpc.Trace().Hex()
		req.SpanID = rpc.ID().Hex()
	}
	resp, err := c.roundTrip(ctx, req)
	if err == nil {
		err = resp.Err()
	}
	if err != nil {
		rpc.Add(obs.Err(classifyErr(err)))
		rpc.End()
		return nil, err
	}
	rpc.End()
	return resp, nil
}

// classifyErr maps a client-visible failure onto the obs error-class
// vocabulary (classes, never error text, reach the exporters).
func classifyErr(err error) obs.ErrClass {
	switch {
	case errors.Is(err, node.ErrDenied):
		return obs.ErrDenied
	case errors.Is(err, context.DeadlineExceeded):
		return obs.ErrTimeout
	case errors.Is(err, context.Canceled):
		return obs.ErrTimeout
	case errors.Is(err, ErrAmbiguous), errors.Is(err, ErrNeverSent):
		return obs.ErrTransport
	default:
		return obs.ErrInternal
	}
}
