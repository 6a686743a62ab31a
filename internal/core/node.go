package core

import (
	"context"
	"time"

	"tinman/internal/cor"
	"tinman/internal/netsim"
	"tinman/internal/node"
	"tinman/internal/nodeproto"
	"tinman/internal/obs"
	"tinman/internal/store"
	"tinman/internal/tcpsim"
)

// TrustedNode is the simulation's trusted node: the transport-agnostic
// node.Service (§2.5) behind a nodeproto.Server, reached over the simulated
// TCP control connection. The service owns the cor vault, policy engine,
// audit log, offload hosting, injection state and replay windows; the
// server's dispatch turns each request into service calls; this adapter
// only splits frames out of the byte stream and schedules each response
// after the cost model's delay for the node's work.
type TrustedNode struct {
	w     *World
	Host  *netsim.Host
	Stack *tcpsim.Stack

	// Svc is the trusted-node service: cor vault, policy, audit log and
	// malware database.
	Svc *node.Service

	Replacer *tcpsim.Replacer

	srv *nodeproto.Server
	// lastReady is the modeled completion time of the latest foreground
	// request. A reply the replay window answers is sent no earlier: a
	// retry never receives the result before the node would have finished
	// computing it.
	lastReady time.Duration
}

func newTrustedNode(w *World, host *netsim.Host, corIdleWindow uint64) *TrustedNode {
	svc := node.New(node.Options{
		Clock:         func() time.Time { return time.Unix(0, 0).Add(w.Net.Now()) },
		CorIdleWindow: corIdleWindow,
	})
	n := &TrustedNode{
		w:     w,
		Host:  host,
		Stack: tcpsim.NewStack(w.Net, host),
		Svc:   svc,
		srv:   nodeproto.NewServerWith(svc),
	}

	l, err := n.Stack.Listen(ControlPort)
	if err != nil {
		panic(err) // fresh stack; cannot happen
	}
	l.OnAccept = n.onControlConn
	// The replacement engine chains in front of the control stack.
	n.Replacer = tcpsim.NewReplacer(host, n.rewritePayload)
	return n
}

// RegisterCor initializes a cor on the trusted node (the safe-environment
// one-time setup of §2.3), wiring its whitelist into the policy engine.
func (n *TrustedNode) RegisterCor(id, plaintext, description string, whitelist ...string) (*cor.Record, error) {
	return n.Svc.RegisterCor(context.Background(), id, plaintext, description, whitelist...)
}

// AttachStore wires a recovered crash-safe store under the node (see
// node.Service.AttachStore): state is restored into the fresh Service, and
// every subsequent vault/audit/policy mutation is fsynced before being
// acknowledged. Call it right after NewWorld, before registering cors.
func (n *TrustedNode) AttachStore(st *store.Store) error {
	return n.Svc.AttachStore(context.Background(), st)
}

// BindApp restricts a cor to an app hash (§3.4 first binding).
func (n *TrustedNode) BindApp(corID, appHash string) error { return n.Svc.BindApp(corID, appHash) }

// --- control plane ---

func (n *TrustedNode) onControlConn(c *tcpsim.Conn) {
	c.OnReadable = func() {
		for {
			req := new(nodeproto.Request)
			size, err := readMsg(c, req)
			if err != nil {
				c.Abort()
				return
			}
			if size == 0 {
				return
			}
			n.serve(c, req)
		}
	}
}

// serve hands one request to the server's dispatch and schedules the
// response after the modeled cost of the node's work. The service runs
// instantly on the virtual clock, so the request's span — joined to the
// device's trace through the request's TraceID/SpanID — and its node_exec
// and sync_back children are recorded over their future intervals. A
// warm-up chunk's span is a dsm_warmup phase of its own, so the background
// stream stays apart from foreground node_op time in a breakdown.
func (n *TrustedNode) serve(c *tcpsim.Conn, req *nodeproto.Request) {
	w, cost := n.w, n.w.Cost
	now := w.Net.Now()
	ctx := context.Background()
	var span *obs.Span
	if tr := w.Obs; tr.Enabled() {
		phase := obs.PhaseNodeOp
		if req.Op == nodeproto.OpDSMWarmup {
			phase = obs.PhaseDSMWarmup
		}
		span = tr.StartRemote(phase, obs.ParseTraceID(req.TraceID),
			obs.ParseSpanID(req.SpanID), obs.OpName(string(req.Op)))
		ctx = obs.ContextWithSpan(ctx, span)
	}
	resp, replayed := n.srv.Dispatch(ctx, req)

	delay := time.Millisecond
	switch {
	case req.Op == nodeproto.OpDSMWarmup:
		// Applying a chunk costs deserialization time; it delays only the
		// ack, never a foreground request (the event loop interleaves).
		delay = time.Duration(int64(len(req.Body)) * cost.SerializeNsPerByte)
	case !resp.OK:
	case req.Op == nodeproto.OpInstall:
		// Assembly cost is proportional to code size.
		delay = time.Duration(int64(resp.CodeSize) * cost.NodeNsPerInstr * 10)
	case req.Op == nodeproto.OpInject:
		delay = cost.NodeInjectSetup
	case req.Op == nodeproto.OpOffload && resp.Stats != nil:
		execD := time.Duration(int64(resp.Stats.Executed) * cost.NodeNsPerInstr)
		serD := time.Duration(int64(len(resp.Body)) * cost.SerializeNsPerByte)
		delay = execD + serD
		if !replayed {
			span.ChildAt(obs.PhaseNodeExec, now, now+execD, obs.Count(int64(resp.Stats.Executed)))
			span.ChildAt(obs.PhaseSyncBack, now+execD, now+delay, obs.Bytes(len(resp.Body)))
		}
	}
	at := now + delay
	switch {
	case replayed:
		at = max(now+time.Millisecond, n.lastReady)
	case req.Op != nodeproto.OpDSMWarmup:
		n.lastReady = at
	}
	if span != nil {
		if resp.Denial != "" {
			span.Add(obs.Err(obs.ErrDenied), obs.Reason(resp.Denial))
		} else if !resp.OK {
			span.Add(obs.Err(obs.ErrInternal))
		}
		span.EndAt(at)
	}
	w.Net.ScheduleAt(at, func() {
		err := nodeproto.WriteMessage(&connWriter{c: c}, resp)
		if err != nil && c.Established() {
			// Connection races are surfaced by aborting; callers time out.
			c.Abort()
		}
	})
}

// rewritePayload is the payload-replacement hook (fig 8 step 4): swap the
// placeholder-bearing marked record for the cor-bearing one.
func (n *TrustedNode) rewritePayload(origSrc, origDst string, seg *tcpsim.Segment) ([]byte, error) {
	// Replacement fires from packet delivery, not a control request; attach
	// it under whatever span the (single-threaded) simulation is currently
	// inside — during a login that is the device's http_wait span.
	var span *obs.Span
	if tr := n.w.Obs; tr.Enabled() {
		trace, parent, _ := tr.Current()
		span = tr.StartRemote(obs.PhaseTCPReplace, trace, parent, obs.Dst(origDst))
	}
	key := node.InjectionKey{
		ClientAddr: origSrc, ClientPort: seg.SrcPort,
		ServerAddr: origDst, ServerPort: seg.DstPort,
	}
	out, err := n.Svc.ReplacePayload(obs.ContextWithSpan(context.Background(), span), key, len(seg.Payload))
	if span != nil {
		if err != nil {
			span.Add(obs.Err(obs.ErrInternal))
		} else {
			span.Add(obs.Bytes(len(out)))
		}
		span.End()
	}
	return out, err
}
