package node

import (
	"context"
	"encoding/json"
	"sort"

	"tinman/internal/audit"
	"tinman/internal/cor"
	"tinman/internal/policy"
	"tinman/internal/store"
)

// This file wires the crash-safe storage engine (internal/store) under the
// Service: once a store is attached, every vault mutation, audit append,
// and policy change is written to the WAL and fsynced before the operation
// is acknowledged, and AttachStore itself restores a freshly recovered
// store's state into an empty Service — the trusted node's boot path after
// kill -9.
//
// Ordering invariant: the node's audit Seq order must equal the WAL's LSN
// order, so that a torn WAL tail only ever truncates a suffix of the audit
// log and can never create a Seq gap. durMu serializes "mint Seq + append
// to the in-memory log + enqueue to the WAL" as one atomic step; the fsync
// wait happens outside the lock, so concurrent appends still share group
// commits.

// AttachStore restores st's recovered state into the Service and enables
// durable logging. The Service must be fresh (no cors, no audit entries):
// restore replays the vault in original bit order so placeholder taint
// bits in the field keep matching, installs the latest policy document,
// restores the audit log (with anomaly rescan), and re-attaches device
// shards at their per-device audit sequence floors.
func (s *Service) AttachStore(ctx context.Context, st *store.Store) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if st == nil {
		return errf(ErrBadRequest, "nil store")
	}
	if st.ReadOnly() {
		return errf(ErrBadRequest, "cannot attach a read-only store")
	}
	if s.Cors.Len() != 0 || s.Audit.Len() != 0 {
		return errf(ErrBadRequest, "AttachStore requires a fresh service (have %d cors, %d audit entries)",
			s.Cors.Len(), s.Audit.Len())
	}
	state := st.State()

	// Vault: primaries first (the first record seen per bit — parents are
	// always logged before their deriveds), in ascending bit order so
	// sequential re-registration reproduces the original bit assignment.
	seen := map[int]bool{}
	var primaries []store.VaultRecord
	for _, r := range state.Vault {
		if !seen[r.Bit] {
			seen[r.Bit] = true
			primaries = append(primaries, r)
		}
	}
	sort.Slice(primaries, func(i, j int) bool { return primaries[i].Bit < primaries[j].Bit })
	for _, r := range primaries {
		if _, err := s.Cors.Register(r.ID, r.Plaintext, r.Description); err != nil {
			return errf(ErrBadRequest, "restoring cor %s: %v", r.ID, err)
		}
		cls, err := cor.ParseClass(r.Class)
		if err != nil {
			return errf(ErrBadRequest, "restoring cor %s: %v", r.ID, err)
		}
		if cls != cor.DefaultClass {
			if err := s.Cors.SetClass(r.ID, cls); err != nil {
				return errf(ErrBadRequest, "restoring cor %s class: %v", r.ID, err)
			}
		}
	}
	for _, r := range state.Vault {
		if s.Cors.Get(r.ID) != nil {
			continue // restored as a primary
		}
		parent := s.Cors.ByBit(r.Bit)
		if parent == nil {
			return errf(ErrBadRequest, "restoring derived cor %s: no parent with bit %d", r.ID, r.Bit)
		}
		if _, err := s.Cors.Derive(parent.ID, r.ID, r.Plaintext); err != nil {
			return errf(ErrBadRequest, "restoring derived cor %s: %v", r.ID, err)
		}
	}

	// Policy: every write logged a whole document, so the latest one is
	// the whole policy, installed at its own version.
	if rec := state.Policy; rec.Version != 0 {
		var doc policy.Snapshot
		if err := json.Unmarshal(rec.Snapshot, &doc); err != nil {
			return errf(ErrBadRequest, "decoding durable policy v%d: %v", rec.Version, err)
		}
		doc.Version = rec.Version
		if _, err := s.Policy.Install(&doc); err != nil {
			return errf(ErrBadRequest, "installing durable policy v%d: %v", rec.Version, err)
		}
	}

	// Audit log, then shards at their per-device sequence floors so the
	// next minted DeviceSeq continues gap-free.
	s.Audit.Restore(state.Audit)
	floors := map[string]uint64{}
	for _, e := range state.Audit {
		if e.DeviceID != "" && e.DeviceSeq > floors[e.DeviceID] {
			floors[e.DeviceID] = e.DeviceSeq
		}
	}
	for dev, floor := range floors {
		s.AttachShard(dev, floor)
	}

	s.durMu.Lock()
	s.dur = st
	s.durMu.Unlock()
	return nil
}

// DurableStore returns the attached store (nil when the service runs
// in-memory only).
func (s *Service) DurableStore() *store.Store {
	s.durMu.Lock()
	defer s.durMu.Unlock()
	return s.dur
}

// durStore reads the attached store.
func (s *Service) durStore() *store.Store {
	s.durMu.Lock()
	defer s.durMu.Unlock()
	return s.dur
}

// durVaultRec logs a vault mutation and waits for its fsync. Callers hold
// no Service locks.
func (s *Service) durVaultRec(id string) error {
	rec := s.Cors.Get(id)
	if rec == nil {
		return errf(ErrUnknownCor, "cor %q vanished before durable log", id)
	}
	return vaultDurable(id, s.queueVault(rec))
}

// queueVault queues the cor's current record for the store: the zero
// Ticket, which waits for nothing, when no store is attached.
func (s *Service) queueVault(rec *cor.Record) store.Ticket {
	st := s.durStore()
	if st == nil {
		return store.Ticket{}
	}
	return st.AppendVault(store.VaultRecord{
		ID: rec.ID, Plaintext: rec.Plaintext, Description: rec.Description,
		Bit: rec.Bit, Class: string(rec.Class),
	})
}

// vaultDurable waits for a vault record's fsync.
func vaultDurable(id string, tk store.Ticket) error {
	if err := tk.Wait(context.Background()); err != nil {
		return errf(ErrNotDurable, "cor %s not durable: %v", id, err)
	}
	return nil
}

// writePolicy is the node's one policy write: edit changes a copy of the
// enforced document, the result is installed, and with a store attached
// it is queued for the WAL before polMu is released, so durable policy
// records are in install order. The caller waits on the returned ticket
// (the zero Ticket without a store).
func (s *Service) writePolicy(edit func(*policy.Snapshot)) (policy.Stamp, store.Ticket, error) {
	s.polMu.Lock()
	defer s.polMu.Unlock()
	doc, stamp, err := s.Policy.Update(edit)
	if err != nil {
		return policy.Stamp{}, store.Ticket{}, badRequest(err)
	}
	st := s.durStore()
	if st == nil {
		return stamp, store.Ticket{}, nil
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return policy.Stamp{}, store.Ticket{}, errf(ErrNotDurable, "encoding policy v%d: %v", stamp.Version, err)
	}
	return stamp, st.AppendPolicy(store.PolicyRecord{Version: stamp.Version, Snapshot: raw}), nil
}

// updatePolicy is writePolicy followed by the wait for its fsync.
func (s *Service) updatePolicy(edit func(*policy.Snapshot)) (policy.Stamp, error) {
	stamp, tk, err := s.writePolicy(edit)
	if err == nil {
		err = policyDurable(stamp, tk)
	}
	if err != nil {
		return policy.Stamp{}, err
	}
	return stamp, nil
}

// policyDurable waits for a policy document's fsync.
func policyDurable(stamp policy.Stamp, tk store.Ticket) error {
	if err := tk.Wait(context.Background()); err != nil {
		return errf(ErrNotDurable, "policy v%d not durable: %v", stamp.Version, err)
	}
	return nil
}

// auditAppendDurable is the durable half of Service.auditAppend: mint the
// per-device sequence, append to the in-memory log, and enqueue to the WAL
// as one durMu-serialized step (Seq order == LSN order), then wait for the
// group commit outside the lock. The caller builds the entry (including the
// policy stamp); Seq/Time/DeviceSeq are minted here.
func (s *Service) auditAppendDurable(st *store.Store, e audit.Entry) error {
	s.durMu.Lock()
	if e.DeviceID != "" {
		e.DeviceSeq = s.shard(e.DeviceID).nextAuditSeq()
	}
	e = s.Audit.AppendEntry(e)
	tk := st.AppendAudit(e)
	s.durMu.Unlock()
	if err := tk.Wait(context.Background()); err != nil {
		return errf(ErrNotDurable, "audit entry %d not durable: %v", e.Seq, err)
	}
	return nil
}
