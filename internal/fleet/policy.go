package fleet

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"tinman/internal/cor"
	"tinman/internal/node"
	"tinman/internal/policy"
)

// Fleet-wide policy: the fleet holds the current policy document and is
// the only one that numbers documents. Every change — a whole document, a
// binding, a whitelist, a revocation — edits that document, numbers it one
// above the fleet's version (New adopts the newest document any member
// holds, and members get documents only from the fleet, so no member is
// ahead), and installs that exact document at that version on every
// healthy member. A member that missed a push is therefore behind by
// version alone: RetryPolicy and Recover install the current document and
// nothing else. Unlike applyAdmin — which aborts on the first error
// because cor registrations must not half-exist — a push keeps going past
// failed members and reports them: the fleet converging everywhere it can
// reach beats blocking the whole push on one straggler.

// InstallPolicy replaces the fleet's document with snap and pushes it
// fleet-wide, returning the stamp every member converges on. An explicit
// snap.Version must exceed the fleet's current one (policy.ErrStaleSnapshot
// otherwise); zero takes the next number. When some members miss the push
// the stamp is still returned, with an error naming them.
func (f *Fleet) InstallPolicy(ctx context.Context, snap *policy.Snapshot) (policy.Stamp, error) {
	return f.push(ctx, func(d *policy.Snapshot) { *d = *snap })
}

// push is the fleet's one policy write: edit changes the fleet's current
// document, which the fleet numbers, adopts and installs on every healthy
// member, recording which members applied it.
func (f *Fleet) push(ctx context.Context, edit func(*policy.Snapshot)) (policy.Stamp, error) {
	f.polMu.Lock()
	defer f.polMu.Unlock()
	doc, stamp, err := f.doc.Update(edit)
	if err != nil {
		return policy.Stamp{}, err
	}

	f.mu.RLock()
	type target struct {
		id      string
		svc     *node.Service
		healthy bool
	}
	targets := make([]target, 0, len(f.order))
	for _, id := range f.order {
		targets = append(targets, target{id, f.members[id].svc, f.healthyLocked(id)})
	}
	f.mu.RUnlock()

	var errs []string
	for _, t := range targets {
		if !t.healthy {
			errs = append(errs, fmt.Sprintf("%s: %v", t.id, ErrMemberDown))
			continue
		}
		if _, err := t.svc.InstallPolicy(ctx, doc); err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", t.id, err))
			continue
		}
		f.applied[t.id] = doc.Version
	}
	if len(errs) > 0 {
		return stamp, &PartialPushError{Stamp: stamp, Applied: len(targets) - len(errs),
			Members: len(targets), Stragglers: errs}
	}
	return stamp, nil
}

// PartialPushError reports a policy push that every reachable member
// applied but some member missed. The document is the fleet's from then
// on, RetryPolicy or Recover delivers it to the stragglers, and callers
// that return only an error (Revoke, Restore, BindApp) still let the
// caller tell this apart from a push nobody applied, with errors.As.
type PartialPushError struct {
	// Stamp is the document every member converges on.
	Stamp policy.Stamp
	// Applied of Members applied it this push.
	Applied, Members int
	// Stragglers names each member that missed it, with the reason.
	Stragglers []string
}

func (e *PartialPushError) Error() string {
	return fmt.Sprintf("fleet: policy v%d applied to %d/%d members: %s",
		e.Stamp.Version, e.Applied, e.Members, strings.Join(e.Stragglers, "; "))
}

// RetryPolicy installs the fleet's current document on every healthy
// member whose applied version is behind it — the top-up pass after a
// partial push. Returns the IDs of members brought up to date this call.
func (f *Fleet) RetryPolicy(ctx context.Context) ([]string, error) {
	f.polMu.Lock()
	defer f.polMu.Unlock()
	want := f.doc.Version()
	if want == 0 {
		return nil, nil
	}

	f.mu.RLock()
	type target struct {
		id  string
		svc *node.Service
	}
	var behind []target
	for _, id := range f.order {
		if f.applied[id] >= want || !f.healthyLocked(id) {
			continue
		}
		behind = append(behind, target{id, f.members[id].svc})
	}
	f.mu.RUnlock()

	var caught []string
	var errs []string
	doc := f.doc.Export()
	for _, t := range behind {
		if _, err := t.svc.InstallPolicy(ctx, doc); err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", t.id, err))
			continue
		}
		f.applied[t.id] = want
		caught = append(caught, t.id)
	}
	sort.Strings(caught)
	if len(errs) > 0 {
		return caught, fmt.Errorf("fleet: policy retry: %s", strings.Join(errs, "; "))
	}
	return caught, nil
}

// PolicyVersions reports the policy version each member is known to have
// applied (0 for a member that holds none).
func (f *Fleet) PolicyVersions() map[string]uint64 {
	f.polMu.Lock()
	defer f.polMu.Unlock()
	out := make(map[string]uint64, len(f.applied))
	for id, v := range f.applied {
		out[id] = v
	}
	return out
}

// PolicySnapshot returns the fleet's current document (nil before the
// first push) — what an admin GET serves fleet-wide.
func (f *Fleet) PolicySnapshot() *policy.Snapshot {
	f.polMu.Lock()
	defer f.polMu.Unlock()
	if f.doc.Version() == 0 {
		return nil
	}
	return f.doc.Export()
}

// BindApp allows an app hash to use a cor, fleet-wide.
func (f *Fleet) BindApp(corID, appHash string) error {
	_, err := f.push(context.Background(), func(d *policy.Snapshot) { d.Bind(corID, appHash) })
	return err
}

// Revoke cuts a device off fleet-wide — a stolen phone must be denied no
// matter which member its requests reach. A member that misses the push is
// named in a *PartialPushError, and RetryPolicy delivers the revocation
// later.
func (f *Fleet) Revoke(deviceID string) error {
	_, err := f.push(context.Background(), func(d *policy.Snapshot) { d.Revoke(deviceID) })
	return err
}

// Restore re-enables a device fleet-wide; a partial push is reported as
// Revoke's is.
func (f *Fleet) Restore(deviceID string) error {
	_, err := f.push(context.Background(), func(d *policy.Snapshot) { d.Restore(deviceID) })
	return err
}

// SetCorClass replicates a sensitivity reclassification fleet-wide, so
// class-gated sync rules and rate budgets agree on every member.
func (f *Fleet) SetCorClass(ctx context.Context, corID string, class cor.Class) error {
	return f.applyAdmin(func(svc *node.Service) error {
		return svc.SetCorClass(ctx, corID, class)
	})
}
