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
	// Audit records a control-plane audit entry (an accepted mutation or an
	// unauthorized attempt) and returns once it is durable: a node passes
	// node.Service.AuditAdmin, its one write path. Nil skips auditing
	// (tests only).
	Audit func(outcome audit.Outcome, detail string) error
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

// auditf records a control-plane audit entry, if auditing is wired, and
// returns the error of an entry that could not be made durable.
func (p *Plane) auditf(outcome audit.Outcome, format string, args ...any) error {
	if p.cfg.Audit == nil {
		return nil
	}
	if err := p.cfg.Audit(outcome, fmt.Sprintf(format, args...)); err != nil {
		p.logf("ctl: audit entry not recorded: %v", err)
		return err
	}
	return nil
}

// InstallPolicy validates and pushes a snapshot through the target,
// auditing the accepted stamp. The stamp is returned even when the push
// was partial (some fleet members unreachable) — err says which. An audit
// entry that cannot be recorded fails the call.
func (p *Plane) InstallPolicy(ctx context.Context, snap *policy.Snapshot) (policy.Stamp, error) {
	if err := snap.Validate(); err != nil {
		return policy.Stamp{}, err
	}
	stamp, err := p.cfg.Target.InstallPolicy(ctx, snap)
	if stamp.Version != 0 {
		if aerr := p.auditf(audit.OutcomeAllowed, "admin: policy v%d (%s) installed", stamp.Version, stamp.Hash); aerr != nil {
			return policy.Stamp{}, aerr
		}
		p.logf("ctl: policy v%d (%s) installed", stamp.Version, stamp.Hash)
	}
	return stamp, err
}

// Revoke cuts off a device everywhere the target reaches. A partial fleet
// push (*fleet.PartialPushError) is audited like a whole one — the
// revocation holds on every reachable member — and still returned, so the
// caller can report the stragglers.
func (p *Plane) Revoke(deviceID string) error {
	return p.audited(p.cfg.Target.Revoke(deviceID), "admin: device %s revoked", deviceID)
}

// Restore re-enables a device, reporting a partial push as Revoke does.
func (p *Plane) Restore(deviceID string) error {
	return p.audited(p.cfg.Target.Restore(deviceID), "admin: device %s restored", deviceID)
}

// audited audits a mutation the target accepted, wholly or on the
// reachable fleet members, and returns the target's err; an entry that
// cannot be recorded fails the call instead.
func (p *Plane) audited(err error, format string, args ...any) error {
	if err != nil && !isPartial(err) {
		return err
	}
	if aerr := p.auditf(audit.OutcomeAllowed, format, args...); aerr != nil {
		return aerr
	}
	return err
}

// isPartial reports whether err is a fleet push that some members missed.
func isPartial(err error) bool {
	var partial *fleet.PartialPushError
	return errors.As(err, &partial)
}

// SetCorClass reclassifies a cor's sensitivity.
func (p *Plane) SetCorClass(ctx context.Context, corID string, class cor.Class) error {
	return p.audited(p.cfg.Target.SetCorClass(ctx, corID, class), "admin: cor %s reclassified as %s", corID, class)
}

// Stamp reports the policy stamp currently running.
func (p *Plane) Stamp() policy.Stamp { return p.cfg.Stamp() }
