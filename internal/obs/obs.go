// Package obs is TinMan's observability subsystem: a span tracer, a metrics
// registry and a set of exporters shared by the virtual-time simulation
// (internal/core and friends) and the deployable trusted node
// (internal/nodeproto, cmd/tinman-node).
//
// # Spans
//
// Trace and span IDs are minted on the device side and propagated to the
// trusted node on the wire (nodeproto Request.TraceID/SpanID, over TCP and
// over the simulated link alike), so one login renders as a single tree: taint
// trigger -> DSM migrate -> node execution -> sync-back, with TLS session
// injection, TCP payload replacement and policy decisions attributed as
// child spans. Timestamps come from an injected clock: the netsim virtual
// clock in simulation, the wall clock in cmd/tinman-node.
//
// # Redaction
//
// Every value that can reach an exporter passes a central gate. Spans carry
// typed Fields whose constructors accept only identifiers and numbers (cor
// IDs, app hashes, device IDs, domains, byte counts, error *classes*) —
// there is no free-string field, so cor plaintext and vault key material
// are structurally unrepresentable in a span. Metric values are numbers and
// metric names are call-site literals. String values are additionally
// length-capped and stripped of control characters (see field.go).
//
// # Cost when disabled
//
// A nil *Tracer is the disabled tracer: every method is nil-safe and the
// no-field fast paths allocate nothing (asserted by TestObsZeroAllocDisabled
// via testing.AllocsPerRun). Call sites that build fields guard with
// Enabled().
package obs

import (
	"sync"
	"time"
)

// TraceID identifies one end-to-end trace (one login run).
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// Phase is the fixed vocabulary of span names. Exporters emit the phase
// string, never caller-supplied text, which is part of the redaction story.
type Phase uint8

// Span phases, covering the offload lifecycle of §3 plus the transports.
const (
	PhaseUnknown Phase = iota
	// PhaseLogin is the root span of one end-to-end app run.
	PhaseLogin
	// PhaseDeviceExec is one device-VM execution burst between offload
	// events.
	PhaseDeviceExec
	// PhaseTaintTrigger marks the tainted access that tripped the offload
	// hook (instant).
	PhaseTaintTrigger
	// PhaseDSMMigrate is one device->node->device DSM thread round trip.
	PhaseDSMMigrate
	// PhaseNodeExec is the node-side VM execution of an offloaded episode.
	PhaseNodeExec
	// PhaseSyncBack is the node-side capture/serialization of the reply
	// migration (the sync back of §3.1).
	PhaseSyncBack
	// PhaseTLSInject is the SSL session injection round trip (§3.2).
	PhaseTLSInject
	// PhaseTCPReplace is the node-side TCP payload replacement (§3.3).
	PhaseTCPReplace
	// PhasePolicyCheck is one policy-engine decision (§3.4).
	PhasePolicyCheck
	// PhaseVaultOpen is one cor vault access that materializes plaintext
	// inside the node (reseal/replacement). Only the cor ID and byte counts
	// are recorded.
	PhaseVaultOpen
	// PhaseControlRPC is one device control-plane round trip (any message).
	PhaseControlRPC
	// PhaseHTTPWait is the device waiting on an origin server's response.
	PhaseHTTPWait
	// PhaseNodeOp is one nodeproto server request.
	PhaseNodeOp
	// PhasePacket is one simulated packet delivery (instant), bridged from
	// netsim.Tracer.
	PhasePacket
	// PhaseDSMWarmup is one speculative warm-up chunk shipped or applied
	// (the pre-migration pipeline overlapping the initial DSM snapshot with
	// device execution).
	PhaseDSMWarmup
	phaseCount
)

var phaseNames = [phaseCount]string{
	PhaseUnknown:      "unknown",
	PhaseLogin:        "login",
	PhaseDeviceExec:   "device_exec",
	PhaseTaintTrigger: "taint_trigger",
	PhaseDSMMigrate:   "dsm_migrate",
	PhaseNodeExec:     "node_exec",
	PhaseSyncBack:     "sync_back",
	PhaseTLSInject:    "tls_inject",
	PhaseTCPReplace:   "tcp_replace",
	PhasePolicyCheck:  "policy_check",
	PhaseVaultOpen:    "vault_open",
	PhaseControlRPC:   "control_rpc",
	PhaseHTTPWait:     "http_wait",
	PhaseNodeOp:       "node_op",
	PhasePacket:       "packet",
	PhaseDSMWarmup:    "dsm_warmup",
}

// String returns the phase's fixed exporter name.
func (p Phase) String() string {
	if p >= phaseCount {
		return "unknown"
	}
	return phaseNames[p]
}

// SpanRecord is one completed span as retained by the flight recorder.
type SpanRecord struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	Phase  Phase
	Start  time.Duration
	End    time.Duration
	Fields []Field
}

// Duration returns the span's wall time on its tracer's clock.
func (r SpanRecord) Duration() time.Duration { return r.End - r.Start }

// Options configures a Tracer.
type Options struct {
	// Now supplies timestamps. Simulations inject the netsim virtual clock;
	// nil uses the wall clock measured from the tracer's construction
	// (cmd/tinman-node).
	Now func() time.Duration
	// Cap bounds the flight recorder (finished spans retained); once full,
	// the oldest record is overwritten and Dropped counts the overwrites.
	// 0 means the default (16384).
	Cap int
}

// defaultCap is the flight-recorder bound when Options.Cap is 0.
const defaultCap = 16384

// Tracer mints spans and retains finished ones in a bounded flight
// recorder. A nil *Tracer is the disabled tracer: every method no-ops.
//
// StartSpan/Current use an active-span stack and are intended for
// single-goroutine drivers (the virtual-time simulation's event loop).
// Concurrent servers use StartRemote with an explicit wire-propagated
// parent, which never touches the stack.
type Tracer struct {
	now func() time.Duration

	mu        sync.Mutex
	ring      []SpanRecord
	head      int // next write position when the ring is full
	full      bool
	dropped   uint64
	stack     []*Span
	lastTrace uint64
	lastSpan  uint64
}

// New builds a tracer.
func New(opts Options) *Tracer {
	now := opts.Now
	if now == nil {
		start := time.Now()
		now = func() time.Duration { return time.Since(start) }
	}
	capn := opts.Cap
	if capn <= 0 {
		capn = defaultCap
	}
	return &Tracer{now: now, ring: make([]SpanRecord, 0, capn)}
}

// Enabled reports whether the tracer records anything; call sites that
// build fields guard with it so the disabled path allocates nothing.
func (t *Tracer) Enabled() bool { return t != nil }

// Now returns the tracer's clock reading (0 when disabled).
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return t.now()
}

// Span is one in-progress span. All methods are nil-safe.
type Span struct {
	tr      *Tracer
	rec     SpanRecord
	onStack bool
	ended   bool
}

// mintLocked allocates the next span ID; callers hold t.mu.
func (t *Tracer) mintLocked() SpanID {
	t.lastSpan++
	return SpanID(t.lastSpan)
}

// StartSpan opens a span as a child of the current stack top; with an empty
// stack it roots a fresh trace. The span stays current until End.
func (t *Tracer) StartSpan(p Phase, fs ...Field) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	s := &Span{tr: t, onStack: true}
	s.rec.Phase = p
	s.rec.ID = t.mintLocked()
	if n := len(t.stack); n > 0 {
		top := t.stack[n-1]
		s.rec.Trace = top.rec.Trace
		s.rec.Parent = top.rec.ID
	} else {
		t.lastTrace++
		s.rec.Trace = TraceID(t.lastTrace)
	}
	s.rec.Fields = fs
	t.stack = append(t.stack, s)
	t.mu.Unlock()
	s.rec.Start = t.now()
	return s
}

// StartRemote opens a span under an explicit (wire-propagated) parent
// without touching the current-span stack; safe for concurrent servers.
// A zero trace roots a fresh trace.
func (t *Tracer) StartRemote(p Phase, trace TraceID, parent SpanID, fs ...Field) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	s := &Span{tr: t}
	s.rec.Phase = p
	s.rec.ID = t.mintLocked()
	if trace == 0 {
		t.lastTrace++
		trace = TraceID(t.lastTrace)
		parent = 0
	}
	s.rec.Trace = trace
	s.rec.Parent = parent
	s.rec.Fields = fs
	t.mu.Unlock()
	s.rec.Start = t.now()
	return s
}

// Current returns the active span's identity for wire propagation.
func (t *Tracer) Current() (TraceID, SpanID, bool) {
	if t == nil {
		return 0, 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 {
		top := t.stack[n-1]
		return top.rec.Trace, top.rec.ID, true
	}
	return 0, 0, false
}

// Event records an instant (zero-duration) span under the current span.
func (t *Tracer) Event(p Phase, fs ...Field) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	rec := SpanRecord{Phase: p, ID: t.mintLocked(), Start: now, End: now, Fields: fs}
	if n := len(t.stack); n > 0 {
		top := t.stack[n-1]
		rec.Trace = top.rec.Trace
		rec.Parent = top.rec.ID
	} else {
		t.lastTrace++
		rec.Trace = TraceID(t.lastTrace)
	}
	t.recordLocked(rec)
	t.mu.Unlock()
}

// Packet records one packet delivery as an instant span attributed to the
// current span (the netsim.Tracer bridge). src, dst and note pass the
// string gate; note should come from a fixed vocabulary.
func (t *Tracer) Packet(at time.Duration, src, dst string, size int, note string) {
	if t == nil {
		return
	}
	fs := []Field{Src(src), Dst(dst), Bytes(size)}
	if note != "" {
		fs = append(fs, Note(note))
	}
	t.mu.Lock()
	rec := SpanRecord{Phase: PhasePacket, ID: t.mintLocked(), Start: at, End: at, Fields: fs}
	if n := len(t.stack); n > 0 {
		top := t.stack[n-1]
		rec.Trace = top.rec.Trace
		rec.Parent = top.rec.ID
	} else {
		t.lastTrace++
		rec.Trace = TraceID(t.lastTrace)
	}
	t.recordLocked(rec)
	t.mu.Unlock()
}

// Add appends fields to an in-progress span.
func (s *Span) Add(fs ...Field) {
	if s == nil || s.ended {
		return
	}
	s.rec.Fields = append(s.rec.Fields, fs...)
}

// Trace returns the span's trace ID (0 when nil).
func (s *Span) Trace() TraceID {
	if s == nil {
		return 0
	}
	return s.rec.Trace
}

// ID returns the span's ID (0 when nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.rec.ID
}

// End closes the span at the tracer's current clock reading.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(s.tr.now())
}

// EndAt closes the span at an explicit clock reading — the simulation uses
// it for node work whose duration is modeled (scheduled) rather than
// elapsed.
func (s *Span) EndAt(at time.Duration) {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.rec.End = at
	t := s.tr
	t.mu.Lock()
	if s.onStack {
		// Pop this span and anything abandoned above it.
		for i := len(t.stack) - 1; i >= 0; i-- {
			if t.stack[i] == s {
				t.stack = t.stack[:i]
				break
			}
		}
	}
	t.recordLocked(s.rec)
	t.mu.Unlock()
}

// Child opens a span under this span with an explicit parent link (no
// stack), for handlers that received the parent over the wire or a context.
func (s *Span) Child(p Phase, fs ...Field) *Span {
	if s == nil {
		return nil
	}
	return s.tr.StartRemote(p, s.rec.Trace, s.rec.ID, fs...)
}

// ChildAt records a completed child span over an explicit interval —
// the simulation attributes modeled node compute (scheduled delays) this
// way.
func (s *Span) ChildAt(p Phase, start, end time.Duration, fs ...Field) {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	rec := SpanRecord{
		Trace: s.rec.Trace, Parent: s.rec.ID, Phase: p,
		Start: start, End: end, Fields: fs,
	}
	rec.ID = t.mintLocked()
	t.recordLocked(rec)
	t.mu.Unlock()
}

// recordLocked appends a finished span to the bounded ring; callers hold
// t.mu.
func (t *Tracer) recordLocked(rec SpanRecord) {
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, rec)
		return
	}
	t.ring[t.head] = rec
	t.head = (t.head + 1) % len(t.ring)
	t.full = true
	t.dropped++
}

// Records returns the retained finished spans, oldest first.
func (t *Tracer) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.ring))
	if t.full {
		out = append(out, t.ring[t.head:]...)
		out = append(out, t.ring[:t.head]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// Dropped counts finished spans overwritten by the bounded recorder.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Reset clears the flight recorder (the active-span stack is untouched).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring = t.ring[:0]
	t.head = 0
	t.full = false
	t.dropped = 0
	t.mu.Unlock()
}
