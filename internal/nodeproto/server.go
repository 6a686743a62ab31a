package nodeproto

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tinman/internal/audit"
	"tinman/internal/cor"
	"tinman/internal/node"
	"tinman/internal/obs"
	"tinman/internal/policy"
)

// Default per-connection limits; override the Server fields before Serve.
const (
	DefaultReadTimeout  = 5 * time.Minute
	DefaultWriteTimeout = time.Minute
	DefaultMaxInflight  = 64
)

// Server exposes the trusted-node service behind the control protocol. The
// domain logic — vault, policy, offload, reseal, audit — lives in
// node.Service; this type only frames, dispatches and correlates. Serve
// runs it on a real TCP listener; it is safe for concurrent connections,
// and each connection is pipelined: requests are handled concurrently
// (bounded by MaxInflight) and answered as they finish, correlated by
// Request.Seq. Other transports hand decoded requests to Dispatch.
type Server struct {
	// Svc is the transport-agnostic service every request dispatches into;
	// administration (cmd/tinman-node, tests) reaches the vault, policy
	// engine and audit log through it.
	Svc *node.Service

	// Logf receives operational messages; nil silences them.
	Logf func(format string, args ...any)

	// ReadTimeout bounds the idle wait for the next request on a
	// connection; WriteTimeout bounds each response write. Zero values use
	// the defaults. Set before Serve.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// MaxInflight caps concurrently-handled requests per connection
	// (0 means DefaultMaxInflight).
	MaxInflight int

	// selfID and placement are installed by SetPlacement when this server
	// is one member of a fleet: device-keyed operations for shards owned by
	// another member are refused with a redirect hint instead of silently
	// forking the device's state onto two nodes. Nil placement (standalone
	// node) disables the gate.
	selfID    string
	placement Placement

	mu       sync.Mutex
	listener net.Listener
	wg       sync.WaitGroup
	closed   chan struct{}

	catalog atomic.Pointer[catalogCache]

	// obs/metrics are installed by SetObs; nil means disabled (every obs
	// call below is nil-safe).
	obs *obs.Tracer
	sm  serverMetrics
}

// serverMetrics caches the server's collectors so the per-request cost is
// atomic updates, not registry lookups.
type serverMetrics struct {
	inflight *obs.Gauge
	replays  *obs.Counter
	errors   *obs.Counter
	requests map[Op]*obs.Counter
	latency  map[Op]*obs.Histogram
}

// SetObs installs a tracer and metrics registry; call before Serve. Each
// request becomes a node_op span joined to the client's trace when the
// request carries TraceID/SpanID, and updates in-flight, per-op latency,
// error and replay-hit collectors.
func (s *Server) SetObs(tr *obs.Tracer, m *obs.Metrics) {
	s.obs = tr
	if m == nil {
		s.sm = serverMetrics{}
		return
	}
	sm := serverMetrics{
		inflight: m.Gauge("tinman_node_inflight_requests"),
		replays:  m.Counter("tinman_node_replay_hits_total"),
		errors:   m.Counter("tinman_node_request_errors_total"),
		requests: make(map[Op]*obs.Counter),
		latency:  make(map[Op]*obs.Histogram),
	}
	for _, op := range []Op{OpPing, OpCatalog, OpAudit, OpWhoOwns, OpDSMWarmup,
		OpReseal, OpInstall, OpOffload, OpInject} {
		sm.requests[op] = m.Counter(fmt.Sprintf(`tinman_node_requests_total{op=%q}`, op))
		sm.latency[op] = m.Histogram(fmt.Sprintf(`tinman_node_request_seconds{op=%q}`, op))
	}
	s.sm = sm
}

// Placement resolves which fleet member owns a device's shard right now.
// fleet.Fleet satisfies it; a wire deployment shares one Placement across
// its member servers.
type Placement interface {
	// Owner answers who_owns without assigning anything.
	Owner(deviceID string) (string, error)
	// Accept gates a device-keyed request arriving at member selfID with
	// assignment semantics (failover bookkeeping, audit watermark floor on
	// the new owner's shard): accept reports that selfID owns the device,
	// and owner names the member to redirect to otherwise.
	Accept(deviceID, selfID string) (accept bool, owner string, err error)
}

// SetPlacement registers this server as fleet member selfID routing through
// p. Call before Serve. Device-keyed requests (reseals, installs, offloads,
// injections) for devices owned elsewhere are refused with Response.Owner
// naming the right member, and OpWhoOwns answers from p.
func (s *Server) SetPlacement(selfID string, p Placement) {
	s.selfID = selfID
	s.placement = p
}

// SetControlPlane does nothing. The device protocol carries no policy,
// revocation or class operations to route: fleet-wide pushes go through
// fleet.Fleet in process or the token-gated admin plane (internal/ctl).
// It is kept only so existing callers still compile.
func (s *Server) SetControlPlane(any) {}

// NewServer assembles a trusted-node server over a fresh service (with the
// default seeded malware DB).
func NewServer() *Server {
	return NewServerWith(node.New(node.Options{}))
}

// NewServerWith serves an existing service instance — this is how several
// transports share one trusted-node brain.
func NewServerWith(svc *node.Service) *Server {
	return &Server{Svc: svc, closed: make(chan struct{})}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Serve accepts connections on l until Close.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
				return err
			}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// Addr returns the bound listener address, or "" before Serve.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.logf("tinman-node: listening on %s", l.Addr())
	return s.Serve(l)
}

// Close stops the listener and waits for in-flight connections.
func (s *Server) Close() error {
	s.mu.Lock()
	l := s.listener
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	s.wg.Wait()
	return err
}

// handleConn pipelines one connection: a read loop pulls framed requests
// and hands each to a bounded worker goroutine; workers queue their
// response (tagged with the request's Seq) for the response writer as
// soon as they finish, possibly out of order.
//
// Every handler runs under a connection-scoped context, cancelled when the
// connection goes away or the server closes, so service calls observe
// cancellation the same way an in-process caller's context does.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	readTimeout := s.ReadTimeout
	if readTimeout == 0 {
		readTimeout = DefaultReadTimeout
	}
	writeTimeout := s.WriteTimeout
	if writeTimeout == 0 {
		writeTimeout = DefaultWriteTimeout
	}
	inflight := s.MaxInflight
	if inflight <= 0 {
		inflight = DefaultMaxInflight
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-s.closed:
			cancel()
			// Unblock the read loop: without this an idle connection
			// would hold Close for a full read-timeout window.
			conn.SetReadDeadline(time.Now())
		case <-ctx.Done():
		}
	}()

	br := bufio.NewReaderSize(conn, connBufSize)
	bw := bufio.NewWriterSize(conn, connBufSize)
	var (
		workers  sync.WaitGroup
		reqq     = make(chan *Request, inflight)
		respq    = make(chan *Response, inflight)
		respDone = make(chan struct{})
	)

	// A fixed pool of handler workers (bounded by MaxInflight) processes
	// requests concurrently and possibly out of order; Seq correlation
	// lets the client reassemble. A pool, not goroutine-per-request,
	// keeps warm stacks across requests on a busy connection.
	nworkers := inflight
	if nworkers > 16 {
		nworkers = 16
	}
	for i := 0; i < nworkers; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for req := range reqq {
				resp, _ := s.Dispatch(ctx, req)
				respq <- resp
			}
		}()
	}

	// The response writer drains respq and flushes only when the queue
	// runs dry — with a Gosched between passes so handler goroutines that
	// are about to respond get to enqueue first, letting a whole batch of
	// pipelined responses leave in one syscall. On write failure it closes
	// the conn (unblocking the read loop) and keeps draining so handlers
	// never block.
	go func() {
		defer close(respDone)
		var dead bool
		write := func(resp *Response) {
			if dead {
				return
			}
			err := conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if err == nil {
				err = WriteMessage(bw, resp)
			}
			if err != nil {
				s.logf("tinman-node: %s: write: %v", conn.RemoteAddr(), err)
				dead = true
				conn.Close()
			}
		}
		for resp := range respq {
			write(resp)
			for pass := 0; pass < 2; pass++ {
			drain:
				for {
					select {
					case more, ok := <-respq:
						if !ok {
							break drain
						}
						write(more)
					default:
						break drain
					}
				}
				if pass == 0 {
					runtime.Gosched()
				}
			}
			if !dead {
				if err := bw.Flush(); err != nil {
					s.logf("tinman-node: %s: flush: %v", conn.RemoteAddr(), err)
					dead = true
					conn.Close()
				}
			}
		}
	}()
	defer func() {
		close(reqq)
		workers.Wait()
		close(respq)
		<-respDone
	}()

	for {
		if err := conn.SetReadDeadline(time.Now().Add(readTimeout)); err != nil {
			s.logf("tinman-node: %s: set read deadline: %v", conn.RemoteAddr(), err)
			return
		}
		req := new(Request)
		if err := ReadMessage(br, req); err != nil {
			if !errors.Is(err, io.EOF) {
				s.logf("tinman-node: %s: read: %v", conn.RemoteAddr(), err)
			}
			return
		}
		// Cheap read-only ops skip the worker handoff: two channel hops and
		// a goroutine wakeup cost more than serving a cached catalog. They
		// still go through Dispatch so instrumentation sees every request
		// (Dispatch never consults the replay window for them).
		if req.Op == OpCatalog || req.Op == OpPing {
			resp, _ := s.Dispatch(ctx, req)
			respq <- resp
			continue
		}
		reqq <- req
	}
}

// deviceKeyed reports whether an op acts on one device's shard: reseals,
// installs, offloads and injections, the ops with side effects that must
// not run twice when a client replays them (audit entries, rate-limit
// budget, derived-ID mints, armed flows). Such ops require a device ID,
// pass the fleet ownership gate and, tagged with a ReqID, run at most once
// in the shard's own replay window, which is exported with the shard, so
// at-most-once survives a drain: the replayed ID answers from the record
// on the new owner. Ping, who_owns and the catalog/audit reads are
// naturally idempotent, so replaying them fresh is cheaper than caching
// their (large) responses. Warm-up chunks skip the window too: the dsm
// epoch protocol already makes duplicates and reorderings safe (a stale
// chunk drops the warm state and the offload falls back cold), and caching
// megabyte chunks would bloat the window for no correctness gain.
func deviceKeyed(op Op) bool {
	switch op {
	case OpReseal, OpInstall, OpOffload, OpInject:
		return true
	}
	return false
}

// Dispatch serves one decoded request and stamps its Seq on the response.
// A device-keyed op without a device ID is refused as a bad request; one
// tagged with a ReqID runs at most once, in the device shard's replay
// window. replayed reports that the response is the recorded result of an
// earlier execution rather than a fresh one. The stored response is copied
// before Seq is stamped: two replays of one ID may race on different
// connections, and each needs its own Seq.
//
// Dispatch is also the server's single instrumentation point: every request
// (including the read-loop fast path) becomes a node_op span — joined to
// the device's trace when the request carries TraceID/SpanID — and updates
// the in-flight/latency/error/replay collectors. With SetObs unset all of
// this is nil-safe no-ops; a transport on a virtual clock passes its own
// span in ctx instead, and the service attributes its children there.
func (s *Server) Dispatch(ctx context.Context, req *Request) (resp *Response, replayed bool) {
	s.sm.inflight.Inc()
	s.sm.requests[req.Op].Inc()
	var span *obs.Span
	start := s.obs.Now()
	if s.obs.Enabled() {
		span = s.obs.StartRemote(obs.PhaseNodeOp, obs.ParseTraceID(req.TraceID),
			obs.ParseSpanID(req.SpanID), obs.OpName(string(req.Op)))
		ctx = obs.ContextWithSpan(ctx, span)
	}

	keyed := deviceKeyed(req.Op)
	if keyed && req.DeviceID == "" {
		// No shard is keyed "": refused before the gate and the window.
		resp = fail("%s requires device_id", req.Op)
	} else if r := s.ownershipGate(req); r != nil {
		// Refused before the replay window sees it: a not-owner answer must
		// not be recorded under the ReqID, or the redirected retry's result
		// could never land in a window that moves with the shard.
		resp = r
	} else if req.ReqID == "" || !keyed {
		resp = s.handle(ctx, req)
	} else {
		var v any
		v, replayed = s.Svc.ReplayDo(req.DeviceID, req.ReqID, func() any {
			// Detach from the connection's lifetime: if this conn dies
			// mid-execution, the real outcome is still recorded, so the
			// client's replay on a fresh conn gets it instead of a cached
			// "context canceled".
			return s.handle(context.WithoutCancel(ctx), req)
		})
		if replayed {
			s.sm.replays.Inc()
			if span != nil {
				span.Add(obs.Note("replay"))
			}
		}
		// A record that crossed a handoff comes back as raw JSON.
		if raw, ok := node.ReplayedRaw(v); ok {
			r := new(Response)
			if err := json.Unmarshal(raw, r); err != nil {
				r = fail("replayed record undecodable: %v", err)
			}
			resp = r
		} else {
			r := *(v.(*Response))
			resp = &r
		}
	}
	resp.Seq = req.Seq

	if !resp.OK {
		s.sm.errors.Inc()
		if span != nil {
			if resp.Denial != "" {
				span.Add(obs.Err(obs.ErrDenied), obs.Reason(resp.Denial))
			} else {
				span.Add(obs.Err(obs.ErrInternal))
			}
		}
	}
	span.End()
	s.sm.latency[req.Op].Observe(s.obs.Now() - start)
	s.sm.inflight.Dec()
	return resp, replayed
}

// ownershipGate refuses device-keyed requests for devices whose shard
// lives on another fleet member, naming that member in the refusal so the
// client can follow the redirect with the identical request. A standalone
// server (no placement) gates nothing.
func (s *Server) ownershipGate(req *Request) *Response {
	if s.placement == nil || !deviceKeyed(req.Op) {
		return nil
	}
	accept, owner, err := s.placement.Accept(req.DeviceID, s.selfID)
	if err != nil {
		return errResponse(err)
	}
	if accept {
		return nil
	}
	return &Response{
		OK:    false,
		Error: fmt.Sprintf("%v: device %s is owned by %s", node.ErrNotOwner, req.DeviceID, owner),
		Owner: owner,
	}
}

// handle dispatches one request into the service.
func (s *Server) handle(ctx context.Context, req *Request) *Response {
	switch req.Op {
	case OpPing:
		return &Response{OK: true}
	case OpCatalog:
		return s.handleCatalog(ctx)
	case OpReseal:
		rec, err := s.Svc.Reseal(ctx, node.ResealRequest{
			CorID: req.CorID, AppHash: req.AppHash, DeviceID: req.DeviceID,
			Domain: req.Domain, TargetIP: req.TargetIP,
			State: req.State, RecordLen: req.RecordLen,
		})
		if err != nil {
			return errResponse(err)
		}
		s.logf("tinman-node: resealed %dB record for cor %s -> %s", len(rec), req.CorID, req.Domain)
		return &Response{OK: true, Record: rec}
	case OpAudit:
		entries, err := s.Svc.AuditQuery(ctx, audit.Query{CorID: req.CorID, DeviceID: req.DeviceID})
		if err != nil {
			return errResponse(err)
		}
		out := make([]AuditEntry, len(entries))
		for i, e := range entries {
			out[i] = AuditEntry{
				Seq: e.Seq, Time: e.Time.Format(time.RFC3339), AppHash: e.AppHash,
				CorID: e.CorID, Device: e.DeviceID, Domain: e.Domain,
				Outcome: e.Outcome.String(), Detail: e.Detail,
				DeviceSeq:     e.DeviceSeq,
				PolicyVersion: e.PolicyVersion, PolicyHash: e.PolicyHash,
			}
		}
		return &Response{OK: true, Audit: out}
	case OpWhoOwns:
		if req.DeviceID == "" {
			return fail("who_owns requires device_id")
		}
		if s.placement == nil {
			// Standalone node: every shard lives here.
			return &Response{OK: true, Owner: s.selfID}
		}
		owner, err := s.placement.Owner(req.DeviceID)
		if err != nil {
			return errResponse(err)
		}
		return &Response{OK: true, Owner: owner}
	case OpDSMWarmup:
		if req.DeviceID == "" || req.App == "" || len(req.Body) == 0 {
			return fail("dsm_warmup requires device_id, app and a chunk body")
		}
		if err := s.Svc.WarmupChunk(ctx, req.DeviceID, req.App, req.Body); err != nil {
			return errResponse(err)
		}
		return &Response{OK: true}
	case OpInstall:
		if req.DeviceID == "" || req.App == "" || len(req.Body) == 0 {
			return fail("install requires device_id, app and a source body")
		}
		res, err := s.Svc.Install(ctx, node.InstallRequest{
			DeviceID: req.DeviceID, Name: req.App, Source: string(req.Body),
			NonOffloadableNatives: node.DeviceNatives,
		})
		if err != nil {
			return errResponse(err)
		}
		return &Response{OK: true, AppHash: res.Hash, CodeSize: res.CodeSize}
	case OpOffload:
		if req.DeviceID == "" || req.App == "" || len(req.Body) == 0 {
			return fail("offload requires device_id, app and a migration body")
		}
		res, err := s.Svc.Offload(ctx, req.DeviceID, req.App, req.Body)
		if err != nil {
			return errResponse(err)
		}
		return &Response{OK: true, Stats: &res.Stats, Body: res.Bytes}
	case OpInject:
		if req.DeviceID == "" || req.App == "" {
			return fail("inject requires device_id and app")
		}
		if req.ClientPort < 0 || req.ClientPort > 0xffff || req.ServerPort < 0 || req.ServerPort > 0xffff {
			return fail("inject: port out of range")
		}
		err := s.Svc.ArmInjection(ctx, node.InjectRequest{
			DeviceID: req.DeviceID, App: req.App, CorID: req.CorID, Domain: req.Domain,
			Key: node.InjectionKey{
				ClientAddr: req.ClientAddr, ClientPort: uint16(req.ClientPort),
				ServerAddr: req.TargetIP, ServerPort: uint16(req.ServerPort),
			},
			State: req.State,
		})
		if err != nil {
			return errResponse(err)
		}
		return &Response{OK: true}
	default:
		return fail("unknown op %q", string(req.Op))
	}
}

// fail answers a malformed request.
func fail(format string, args ...any) *Response {
	return &Response{OK: false, Error: fmt.Sprintf(format, args...), ErrorCode: node.Code(node.ErrBadRequest)}
}

// errResponse converts a service error into the wire envelope: policy
// refusals carry the machine-readable reason in Denial; everything else
// carries the service's message and its stable node.Code.
func errResponse(err error) *Response {
	var d *policy.Denial
	if errors.As(err, &d) {
		return &Response{OK: false, Error: d.Error(), Denial: d.Reason.String(),
			DenialCode: d.Reason.Code() + 1}
	}
	return &Response{OK: false, Error: err.Error(), ErrorCode: node.Code(err)}
}

// catalogCache pairs a DeviceViews snapshot with its wire conversion.
// cor.Store returns the identical snapshot slice until the catalog
// changes, so pointer identity of the first element is a valid cache key.
type catalogCache struct {
	views   []cor.DeviceView
	entries []CatalogEntry
}

func (s *Server) handleCatalog(ctx context.Context) *Response {
	views, err := s.Svc.Catalog(ctx)
	if err != nil {
		return errResponse(err)
	}
	if c := s.catalog.Load(); c != nil && len(c.views) == len(views) &&
		(len(views) == 0 || &c.views[0] == &views[0]) {
		return &Response{OK: true, Catalog: c.entries}
	}
	out := make([]CatalogEntry, len(views))
	for i, v := range views {
		out[i] = CatalogEntry{ID: v.ID, Placeholder: v.Placeholder,
			Description: v.Description, Bit: v.Bit, Class: string(v.Class)}
	}
	s.catalog.Store(&catalogCache{views: views, entries: out})
	return &Response{OK: true, Catalog: out}
}
