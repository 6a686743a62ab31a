package nodeproto

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tinman/internal/fault"
	"tinman/internal/node"
	"tinman/internal/obs"
	"tinman/internal/tlssim"
)

// Reconnect defaults; override via ReconnectConfig.
const (
	DefaultRequestTimeout    = 10 * time.Second
	DefaultMaxAttempts       = 4
	DefaultHeartbeatInterval = 15 * time.Second
)

// clientIDSeq disambiguates ReconnectClients created in one process; the
// nanosecond component disambiguates across processes, which is enough for
// a dedup window keyed per request.
var clientIDSeq atomic.Uint64

// ReconnectConfig tunes a ReconnectClient. The zero value of every field
// takes a sensible default, except Dial, which is required (DialReconnect
// fills it from an address).
type ReconnectConfig struct {
	// Dial opens a fresh connection to the node.
	Dial func() (net.Conn, error)
	// RequestTimeout bounds each individual attempt (default 10s).
	RequestTimeout time.Duration
	// MaxAttempts caps tries per logical request (default 4).
	MaxAttempts int
	// Backoff paces retries; the zero value takes the fault defaults.
	Backoff fault.Backoff
	// Breaker configures the circuit breaker that turns repeated channel
	// failures into fast local refusals (cor-degraded mode).
	Breaker fault.BreakerConfig
	// Heartbeat is the liveness-probe interval. Probes detect a dead
	// connection while the caller is idle and — breaker permitting — redial
	// so recovery does not wait for user traffic. 0 uses the default;
	// negative disables the prober.
	Heartbeat time.Duration
	// ClientID prefixes the request IDs minted for at-most-once replay;
	// empty generates a process-unique value.
	ClientID string
	// Metrics, when set, counts breaker state transitions
	// (tinman_breaker_transitions_total{to=...}), gauges the current state,
	// and counts reconnects. It also installs Breaker.OnTransition unless
	// the caller already set one.
	Metrics *obs.Metrics
}

// ReconnectClient is the typed client for one trusted node. It runs each
// request over a pipelined connection and adds the fault tolerance a
// mobile device needs on a flaky link to its trusted node (§5.4
// availability):
//
//   - transparent reconnect: a dead connection is replaced on the next
//     request (or by the heartbeat prober), with capped exponential
//     backoff between attempts;
//   - safe retry: every non-idempotent request is tagged with a unique
//     ReqID, so replaying after an ambiguous failure cannot double-execute
//     — the server's replay window returns the recorded outcome;
//   - circuit breaking: after consecutive channel failures the breaker
//     opens and calls fail fast with node.ErrNodeUnavailable instead of
//     hanging a user-facing operation on timeouts; a half-open probe
//     closes it again once the node answers.
//
// Methods are safe for concurrent use.
type ReconnectClient struct {
	cfg     ReconnectConfig
	breaker *fault.Breaker
	reqSeq  atomic.Uint64
	// idNonce makes minted ReqIDs unique across client instances even when
	// the caller supplies a stable ClientID (a device identity). The
	// server-side replay window outlives client processes — it travels with
	// the device's shard — so a fresh run re-minting "<id>-1" would be
	// served the previous run's recorded responses.
	idNonce string

	// reconnects counts connections established, the first included.
	reconnects atomic.Uint64
	// reconnectCtr mirrors reconnects into the metrics registry (nil-safe).
	reconnectCtr *obs.Counter

	mu     sync.Mutex
	cur    *conn
	closed bool

	hbStop chan struct{}
	hbDone chan struct{}
}

// NewReconnectClient builds a reconnecting client; it does not dial until
// the first request (or heartbeat), so it can be created while the node is
// still down.
func NewReconnectClient(cfg ReconnectConfig) *ReconnectClient {
	if cfg.Dial == nil {
		panic("nodeproto: ReconnectConfig.Dial is required")
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = DefaultHeartbeatInterval
	}
	if cfg.ClientID == "" {
		cfg.ClientID = fmt.Sprintf("rc%d-%d", clientIDSeq.Add(1), time.Now().UnixNano())
	}
	if m := cfg.Metrics; m != nil && cfg.Breaker.OnTransition == nil {
		transitions := map[fault.BreakerState]*obs.Counter{}
		for _, st := range []fault.BreakerState{fault.BreakerClosed, fault.BreakerOpen, fault.BreakerHalfOpen} {
			transitions[st] = m.Counter(fmt.Sprintf(`tinman_breaker_transitions_total{to=%q}`, st))
		}
		stateGauge := m.Gauge("tinman_breaker_state")
		cfg.Breaker.OnTransition = func(_, to fault.BreakerState) {
			transitions[to].Inc()
			stateGauge.Set(int64(to))
		}
	}
	rc := &ReconnectClient{
		cfg:          cfg,
		breaker:      fault.NewBreaker(cfg.Breaker),
		reconnectCtr: cfg.Metrics.Counter("tinman_reconnects_total"),
		idNonce:      fmt.Sprintf("%d.%d", clientIDSeq.Add(1), time.Now().UnixNano()),
	}
	if cfg.Heartbeat > 0 {
		rc.hbStop = make(chan struct{})
		rc.hbDone = make(chan struct{})
		go rc.heartbeat()
	}
	return rc
}

// DialReconnect builds a reconnecting client for the node at addr. It
// cannot fail: connectivity is established lazily and repaired
// continuously.
func DialReconnect(addr string, timeout time.Duration, cfg ReconnectConfig) *ReconnectClient {
	if cfg.Dial == nil {
		cfg.Dial = dialer(addr, timeout)
	}
	return NewReconnectClient(cfg)
}

// Close stops the prober and closes the current connection.
func (rc *ReconnectClient) Close() error {
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return nil
	}
	rc.closed = true
	c := rc.cur
	rc.cur = nil
	rc.mu.Unlock()
	if rc.hbStop != nil {
		close(rc.hbStop)
		<-rc.hbDone
	}
	if c != nil {
		return c.close()
	}
	return nil
}

// Reconnects returns how many connections have been established over the
// client's lifetime (the initial dial counts as the first).
func (rc *ReconnectClient) Reconnects() uint64 { return rc.reconnects.Load() }

// BreakerState exposes the circuit breaker's state for monitoring and
// degraded-mode checks.
func (rc *ReconnectClient) BreakerState() fault.BreakerState { return rc.breaker.State() }

// client returns a live connection, dialing a replacement if the current
// one is dead or absent.
func (rc *ReconnectClient) client() (*conn, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return nil, errClosed
	}
	if rc.cur != nil && rc.cur.alive() {
		return rc.cur, nil
	}
	if rc.cur != nil {
		rc.cur.close()
		rc.cur = nil
	}
	nc, err := rc.cfg.Dial()
	if err != nil {
		return nil, err
	}
	c := newConn(nc)
	rc.cur = c
	rc.reconnects.Add(1)
	rc.reconnectCtr.Inc()
	return c, nil
}

// invalidate discards a connection observed failing, unless a concurrent
// caller already replaced it.
func (rc *ReconnectClient) invalidate(c *conn) {
	rc.mu.Lock()
	if rc.cur == c {
		rc.cur = nil
	}
	rc.mu.Unlock()
	c.close()
}

// heartbeat probes liveness every cfg.Heartbeat: a ping over the current
// connection, or — when there is none and the breaker permits — a dial
// probe, so an idle device notices recovery without user traffic.
func (rc *ReconnectClient) heartbeat() {
	defer close(rc.hbDone)
	t := time.NewTicker(rc.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-rc.hbStop:
			return
		case <-t.C:
			rc.probe()
		}
	}
}

func (rc *ReconnectClient) probe() {
	rc.mu.Lock()
	c := rc.cur
	closed := rc.closed
	alive := c != nil && c.alive()
	rc.mu.Unlock()
	if closed {
		return
	}
	if !alive {
		if !rc.breaker.Allow() {
			return
		}
		nc, err := rc.client()
		if err != nil {
			rc.breaker.Failure()
			return
		}
		c = nc
	}
	timeout := rc.cfg.RequestTimeout
	if timeout > rc.cfg.Heartbeat {
		timeout = rc.cfg.Heartbeat
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	_, err := c.do(ctx, &Request{Op: OpPing})
	cancel()
	if err != nil {
		rc.breaker.Failure()
		rc.invalidate(c)
		return
	}
	rc.breaker.Success()
}

// do runs one logical request to completion: at most MaxAttempts tries,
// backoff-paced, each on a (possibly fresh) connection under its own
// deadline. Retrying is safe for every failure class it retries: requests
// that never reached the wire trivially, ambiguous ones because the minted
// ReqID makes the server deduplicate the replay. Caller cancellation and
// node-level answers (denials, bad requests) are returned immediately.
func (rc *ReconnectClient) do(ctx context.Context, req *Request) (*Response, error) {
	if deviceKeyed(req.Op) && req.ReqID == "" {
		req.ReqID = fmt.Sprintf("%s-%s-%d", rc.cfg.ClientID, rc.idNonce, rc.reqSeq.Add(1))
	}
	var lastErr error
	for attempt := 0; attempt < rc.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, rc.cfg.Backoff.Delay(attempt-1)); err != nil {
				return nil, err
			}
		}
		if !rc.breaker.Allow() {
			break
		}
		c, err := rc.client()
		if err != nil {
			if errors.Is(err, errClosed) {
				return nil, err
			}
			rc.breaker.Failure()
			lastErr = err
			continue
		}
		attemptCtx, cancel := context.WithTimeout(ctx, rc.cfg.RequestTimeout)
		// Each attempt sends a private copy: an abandoned earlier attempt
		// may still be queued in a dying connection's writer, which must
		// not observe this attempt's Seq stamping.
		r := *req
		resp, err := c.do(attemptCtx, &r)
		cancel()
		if err == nil {
			rc.breaker.Success()
			return resp, nil
		}
		if ctx.Err() != nil {
			// The caller gave up; that is not evidence against the node.
			return nil, ctx.Err()
		}
		var te *TransportError
		if !errors.As(err, &te) && !errors.Is(err, context.DeadlineExceeded) {
			// The node answered with a protocol-level refusal (denial, bad
			// request): the channel itself is healthy.
			rc.breaker.Success()
			return nil, err
		}
		rc.breaker.Failure()
		rc.invalidate(c)
		lastErr = err
	}
	if lastErr == nil {
		return nil, fmt.Errorf("%w: circuit breaker open (state %s)",
			node.ErrNodeUnavailable, rc.breaker.State())
	}
	return nil, fmt.Errorf("%w: giving up after %d attempts: %w",
		node.ErrNodeUnavailable, rc.cfg.MaxAttempts, lastErr)
}

// sleepCtx waits d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Do runs one raw request through the reconnect/retry/breaker machinery.
// If the request is device-keyed and carries no ReqID, one is minted onto
// it — and stays on the caller's Request, so resending the same Request to
// a different member (a fleet redirect after a not-owner refusal or a
// crash) dedups in the shard's replay window instead of double-executing.
func (rc *ReconnectClient) Do(ctx context.Context, req *Request) (*Response, error) {
	return rc.do(ctx, req)
}

// Ping checks liveness.
func (rc *ReconnectClient) Ping() error { return rc.PingContext(context.Background()) }

// PingContext checks liveness, honoring ctx cancellation/deadline.
func (rc *ReconnectClient) PingContext(ctx context.Context) error {
	_, err := rc.do(ctx, &Request{Op: OpPing})
	return err
}

// Catalog fetches the device view.
func (rc *ReconnectClient) Catalog() ([]CatalogEntry, error) {
	return rc.CatalogContext(context.Background())
}

// CatalogContext is Catalog with a caller-supplied context.
func (rc *ReconnectClient) CatalogContext(ctx context.Context) ([]CatalogEntry, error) {
	resp, err := rc.do(ctx, &Request{Op: OpCatalog})
	if err != nil {
		return nil, err
	}
	return resp.Catalog, nil
}

// Reseal performs payload replacement under a fault-tolerant channel.
func (rc *ReconnectClient) Reseal(corID string, state *tlssim.State, appHash, deviceID, domain, targetIP string, recordLen int) ([]byte, error) {
	st, err := json.Marshal(state)
	if err != nil {
		return nil, err
	}
	return rc.ResealRawContext(context.Background(), corID, st, appHash, deviceID, domain, targetIP, recordLen)
}

// ResealRawContext is Reseal with a pre-marshaled session state and a
// caller-supplied context.
func (rc *ReconnectClient) ResealRawContext(ctx context.Context, corID string, state json.RawMessage, appHash, deviceID, domain, targetIP string, recordLen int) ([]byte, error) {
	resp, err := rc.do(ctx, &Request{
		Op: OpReseal, CorID: corID, State: state,
		AppHash: appHash, DeviceID: deviceID, Domain: domain, TargetIP: targetIP,
		RecordLen: recordLen,
	})
	if err != nil {
		return nil, err
	}
	return resp.Record, nil
}

// AuditLog fetches audit entries, optionally filtered.
func (rc *ReconnectClient) AuditLog(corID, deviceID string) ([]AuditEntry, error) {
	resp, err := rc.do(context.Background(), &Request{Op: OpAudit, CorID: corID, DeviceID: deviceID})
	if err != nil {
		return nil, err
	}
	return resp.Audit, nil
}
