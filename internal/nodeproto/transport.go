package nodeproto

import (
	"errors"
	"fmt"
)

// Transport failures are classified by whether the request could have
// reached the node, because that decides what a retry layer may do:
//
//   - never sent: the request provably did not leave this client. Retrying
//     is always safe, even for non-idempotent operations.
//   - ambiguous: bytes may have reached the node before the failure, so
//     the operation may have executed. A blind retry could double-execute;
//     a retry under the same Request.ReqID is safe because the server's
//     replay window deduplicates it.
//
// Both sentinels (and the underlying cause) are reachable through
// errors.Is/As on any transport failure a round trip returns.
var (
	// ErrNeverSent marks a request that never reached the wire.
	ErrNeverSent = errors.New("nodeproto: request never sent")
	// ErrAmbiguous marks a request that may have executed on the node.
	ErrAmbiguous = errors.New("nodeproto: request may have executed")
)

// TransportError is the concrete error for a failed round trip: the
// classification plus the underlying transport cause.
type TransportError struct {
	// Ambiguous is true when the request may have reached the node.
	Ambiguous bool
	// Cause is the underlying connection error.
	Cause error
}

func (e *TransportError) Error() string {
	if e.Ambiguous {
		return fmt.Sprintf("nodeproto: transport failed after send (request may have executed): %v", e.Cause)
	}
	return fmt.Sprintf("nodeproto: transport failed before send: %v", e.Cause)
}

// Unwrap exposes the classification sentinel and the cause to errors.Is/As.
func (e *TransportError) Unwrap() []error {
	sentinel := ErrNeverSent
	if e.Ambiguous {
		sentinel = ErrAmbiguous
	}
	return []error{sentinel, e.Cause}
}

// transportErr wraps cause with a send classification. It is idempotent:
// an already-classified error passes through unchanged, so layered failure
// paths (per-request resolve, then failAll) cannot re-wrap and flip the
// classification.
func transportErr(sent bool, cause error) error {
	var te *TransportError
	if errors.As(cause, &te) {
		return cause
	}
	return &TransportError{Ambiguous: sent, Cause: cause}
}
