package node

import (
	"errors"
	"fmt"

	"tinman/internal/policy"
)

// The service's error taxonomy. Every error the Service returns matches at
// least one of these sentinels under errors.Is, so transports and callers
// branch on kinds instead of error text. Policy refusals additionally carry
// the *policy.Denial itself, extractable with errors.As.
var (
	// ErrDenied marks any policy refusal (it is policy.ErrDenied, so a bare
	// *policy.Denial and a service error match the same sentinel).
	ErrDenied = policy.ErrDenied
	// ErrRevoked marks denials caused by device revocation (stolen phone).
	ErrRevoked = errors.New("node: device access revoked")
	// ErrMalware marks denials caused by a malware-DB hit.
	ErrMalware = errors.New("node: application is known malware")
	// ErrUnknownCor marks references to a cor the vault does not hold.
	ErrUnknownCor = errors.New("node: unknown cor")
	// ErrUnknownApp marks references to an app not installed for the device.
	ErrUnknownApp = errors.New("node: app not installed")
	// ErrBadRequest marks malformed or unprocessable requests.
	ErrBadRequest = errors.New("node: bad request")
	// ErrWeakTLS marks session state the node refuses to join (TLS ≤ 1.0:
	// implicit-IV CBC state sync leaks plaintext, fig 7).
	ErrWeakTLS = errors.New("node: TLS version too low for session injection")
	// ErrRecordLength marks a reseal whose output would desynchronize TCP.
	ErrRecordLength = errors.New("node: resealed record length mismatch")
	// ErrNoInjection marks payload replacement without an armed injection.
	ErrNoInjection = errors.New("node: no armed injection")
	// ErrExecution marks offloaded code that faulted or was aborted by the
	// dynamic-analysis monitor.
	ErrExecution = errors.New("node: offloaded execution failed")
	// ErrNodeUnavailable marks operations refused because the trusted node
	// is unreachable: the channel's retry budget is exhausted or its
	// circuit breaker is open, and the device is in cor-degraded mode
	// (§5.4 connectivity) — untainted work proceeds, cor-touching work
	// fails fast with this sentinel until the node comes back.
	ErrNodeUnavailable = errors.New("node: trusted node unavailable")
	// ErrShardDraining marks requests rejected because the device's shard is
	// mid-handoff: the service quiesces the shard before export, and new
	// work must retry against the importing node.
	ErrShardDraining = errors.New("node: device shard draining")
	// ErrUnknownDevice marks shard operations on a device this node does not
	// host.
	ErrUnknownDevice = errors.New("node: unknown device")
	// ErrNotOwner marks device-keyed requests that reached a node the fleet
	// placement does not route the device to; the wire layer attaches the
	// owning member so clients can redirect.
	ErrNotOwner = errors.New("node: not the owning node for device")
	// ErrWarmStale marks a warm-path migration whose speculative warm-up
	// epoch this node does not hold ready (torn warm-up, reconnect, shard
	// handoff). The device must fall back to the cold full-snapshot path.
	ErrWarmStale = errors.New("node: warm-up epoch stale or missing")
	// ErrNotDurable marks a mutation the attached storage engine failed to
	// commit: the WAL append or its fsync errored, so the change was never
	// acknowledged as durable. The store fails sticky, so the node must be
	// restarted (recovering from the last durable state) before it accepts
	// further mutations.
	ErrNotDurable = errors.New("node: mutation not durable")
)

// Error is the service's error type: a human-readable message (kept
// byte-compatible with the pre-refactor transports) plus the sentinel and,
// for policy refusals, the denial it wraps.
type Error struct {
	kind   error
	denial *policy.Denial
	cause  error
	msg    string
}

func (e *Error) Error() string { return e.msg }

// Unwrap exposes the sentinel, the denial, and the cause to errors.Is/As.
func (e *Error) Unwrap() []error {
	out := make([]error, 0, 3)
	if e.kind != nil {
		out = append(out, e.kind)
	}
	if e.denial != nil {
		out = append(out, e.denial)
	}
	if e.cause != nil {
		out = append(out, e.cause)
	}
	return out
}

// Denial returns the wrapped policy denial, if any.
func (e *Error) Denial() *policy.Denial { return e.denial }

// errf builds a sentinel-tagged error with a formatted message.
func errf(kind error, format string, args ...any) *Error {
	return &Error{kind: kind, msg: fmt.Sprintf(format, args...)}
}

// badRequest wraps an underlying error verbatim: the message stays
// byte-identical to what the cause would have produced on the wire.
func badRequest(err error) *Error {
	return &Error{kind: ErrBadRequest, cause: err, msg: err.Error()}
}

// denied wraps a policy denial, attaching its reason-specific sentinel.
func denied(d *policy.Denial) *Error {
	return &Error{kind: SentinelForReason(d.Reason), denial: d, msg: d.Error()}
}

// SentinelForReason maps a policy reason to the finest-grained sentinel;
// every denial also matches ErrDenied regardless (via the wrapped Denial).
func SentinelForReason(r policy.Reason) error {
	switch r {
	case policy.ReasonRevoked:
		return ErrRevoked
	case policy.ReasonMalware:
		return ErrMalware
	default:
		return ErrDenied
	}
}

// codes lists the sentinels a transport carries as a stable numeric error
// code: a sentinel's code is its index plus one, so the zero value means
// "no code". Append only — a code, once assigned, never changes meaning.
// Denials travel as policy reason codes instead (SentinelForReason).
var codes = []error{
	ErrUnknownCor, ErrUnknownApp, ErrBadRequest, ErrWeakTLS, ErrRecordLength,
	ErrNoInjection, ErrExecution, ErrShardDraining, ErrUnknownDevice,
	ErrNotOwner, ErrWarmStale, ErrNotDurable,
}

// Code returns the stable code of the first sentinel err matches, or 0.
func Code(err error) int {
	for i, s := range codes {
		if errors.Is(err, s) {
			return i + 1
		}
	}
	return 0
}

// SentinelForCode maps a code from Code back to its sentinel; nil when the
// code is 0 or unknown to this build.
func SentinelForCode(code int) error {
	if code < 1 || code > len(codes) {
		return nil
	}
	return codes[code-1]
}
