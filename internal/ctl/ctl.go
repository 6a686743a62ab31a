// Package ctl is TinMan's live control plane: the operator-facing
// coordination layer over versioned policy snapshots (internal/policy),
// cor sensitivity classes (internal/cor) and fleet-wide revocation push
// (internal/fleet).
//
// The package deliberately owns no policy state of its own — the policy
// engine's atomic snapshot swap is the single source of truth — and
// coordinates through a narrow Target interface that both a standalone
// node.Service and a fleet.Fleet satisfy. What ctl adds on top:
//
//   - HTTP admin surface, the one administration path a running node
//     exposes (the device protocol, internal/nodeproto, carries no admin
//     op): read-only endpoints (metrics, spans, traces, policy) open to
//     scrapes, and mutating ones (policy install, device revocation, class
//     changes) gated by a bearer token. Unauthorized mutation attempts are
//     refused with 403 AND recorded in the audit log — probing the control
//     plane is itself an auditable event.
//   - The leak guardrail (ctl/guardrail): a scanner that fingerprints
//     every secret the node holds and sweeps every byte stream that
//     leaves the process for them.
package ctl

import (
	"context"
	"errors"
	"fmt"

	"tinman/internal/audit"
	"tinman/internal/cor"
	"tinman/internal/fleet"
	"tinman/internal/policy"
)

// Target applies control-plane mutations. node.Service satisfies it for a
// standalone node; fleet.Fleet satisfies it with fleet-wide propagation.
type Target interface {
	InstallPolicy(ctx context.Context, snap *policy.Snapshot) (policy.Stamp, error)
	Revoke(deviceID string) error
	Restore(deviceID string) error
	SetCorClass(ctx context.Context, corID string, class cor.Class) error
}

// Config assembles a Plane.
type Config struct {
	// Target receives every mutation. Required.
	Target Target
	// Stamp reports the policy stamp currently running (on a fleet: the
	// stamp of any member, they converge). Required.
	Stamp func() policy.Stamp
	// Export returns the current policy document for GET /policy; nil
	// hides that endpoint.
	Export func() *policy.Snapshot
	// Audit receives control-plane audit entries: accepted mutations and
	// unauthorized attempts. Nil skips auditing (tests only — production
	// callers always pass the node's log).
	Audit *audit.Log
	// Token is the bearer token mutating endpoints require. Empty fails
	// closed: every mutation is refused. (The operator opts into mutation
	// by exporting TINMAN_ADMIN_TOKEN; there is no insecure default.)
	Token string
	// Logf receives operational messages; nil silences them.
	Logf func(format string, args ...any)
}

// Plane is the control-plane coordinator behind the admin HTTP surface.
type Plane struct {
	cfg Config
}

// New validates the config and builds a Plane.
func New(cfg Config) (*Plane, error) {
	if cfg.Target == nil {
		return nil, errors.New("ctl: Config.Target is required")
	}
	if cfg.Stamp == nil {
		return nil, errors.New("ctl: Config.Stamp is required")
	}
	return &Plane{cfg: cfg}, nil
}

func (p *Plane) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// auditf appends a control-plane entry to the audit log, if one is wired.
func (p *Plane) auditf(outcome audit.Outcome, format string, args ...any) {
	if p.cfg.Audit == nil {
		return
	}
	p.cfg.Audit.Append("", "", "", "", outcome, fmt.Sprintf(format, args...))
}

// InstallPolicy validates and pushes a snapshot through the target,
// auditing the accepted stamp. The stamp is returned even when the push
// was partial (some fleet members unreachable) — err says which.
func (p *Plane) InstallPolicy(ctx context.Context, snap *policy.Snapshot) (policy.Stamp, error) {
	if err := snap.Validate(); err != nil {
		return policy.Stamp{}, err
	}
	stamp, err := p.cfg.Target.InstallPolicy(ctx, snap)
	if stamp.Version != 0 {
		p.auditf(audit.OutcomeAllowed, "admin: policy v%d (%s) installed", stamp.Version, stamp.Hash)
		p.logf("ctl: policy v%d (%s) installed", stamp.Version, stamp.Hash)
	}
	return stamp, err
}

// Revoke cuts off a device everywhere the target reaches. A partial fleet
// push (*fleet.PartialPushError) is audited like a whole one — the
// revocation holds on every reachable member — and still returned, so the
// caller can report the stragglers.
func (p *Plane) Revoke(deviceID string) error {
	err := p.cfg.Target.Revoke(deviceID)
	if err != nil && !isPartial(err) {
		return err
	}
	p.auditf(audit.OutcomeAllowed, "admin: device %s revoked", deviceID)
	return err
}

// Restore re-enables a device, reporting a partial push as Revoke does.
func (p *Plane) Restore(deviceID string) error {
	err := p.cfg.Target.Restore(deviceID)
	if err != nil && !isPartial(err) {
		return err
	}
	p.auditf(audit.OutcomeAllowed, "admin: device %s restored", deviceID)
	return err
}

// isPartial reports whether err is a fleet push that some members missed.
func isPartial(err error) bool {
	var partial *fleet.PartialPushError
	return errors.As(err, &partial)
}

// SetCorClass reclassifies a cor's sensitivity.
func (p *Plane) SetCorClass(ctx context.Context, corID string, class cor.Class) error {
	if err := p.cfg.Target.SetCorClass(ctx, corID, class); err != nil {
		return err
	}
	p.auditf(audit.OutcomeAllowed, "admin: cor %s reclassified as %s", corID, class)
	return nil
}

// Stamp reports the policy stamp currently running.
func (p *Plane) Stamp() policy.Stamp { return p.cfg.Stamp() }
