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
// Service. Every operation collects its audit entries, vault upserts and
// policy document in one opRecords and commits them once before it
// returns, error paths included: with a store, as one fsynced store.Append,
// so recovery holds every operation whole or not at all. AttachStore
// restores a recovered store's state into an empty Service — the trusted
// node's boot path after kill -9.
//
// Ordering invariant: the node's audit Seq order must equal the WAL's LSN
// order, so that a torn WAL tail only ever truncates a suffix of the audit
// log and can never create a Seq gap. durMu serializes "mint Seq + append
// to the in-memory log + enqueue to the WAL" as one atomic step; the fsync
// wait happens outside the lock, so concurrent operations still share
// group commits.

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

// opRecords collects one operation's durable effects for commit: audit
// entries (complete but for Seq, Time and DeviceSeq, which commit mints),
// vault upserts and the policy document.
type opRecords struct {
	// sh is the shard the operation entered, nil for an operation on no
	// device; it mints the DeviceSeq of that device's entries.
	sh   *DeviceShard
	recs []store.Record
}

// note records an audit entry decided under policy stamp st.
func (op *opRecords) note(st policy.Stamp, appHash, corID, deviceID, domain string, outcome audit.Outcome, detail string) {
	op.recs = append(op.recs, store.Audit(audit.Entry{
		AppHash: appHash, CorID: corID, DeviceID: deviceID, Domain: domain,
		Outcome: outcome, Detail: detail,
		PolicyVersion: st.Version, PolicyHash: st.Hash,
	}))
}

// vault records the cor's current state as a vault upsert.
func (op *opRecords) vault(rec *cor.Record) {
	op.recs = append(op.recs, store.Vault(store.VaultRecord{
		ID: rec.ID, Plaintext: rec.Plaintext, Description: rec.Description,
		Bit: rec.Bit, Class: string(rec.Class),
	}))
}

// enqueue is the locked half of commit: under durMu it mints each audit
// entry's Seq and Time (and, for an entry of op.sh's device, its
// DeviceSeq), appends the entries to the in-memory log and, with a store
// attached, enqueues all of op's records as one store.Append. Without a
// store the returned zero Ticket waits for nothing.
func (s *Service) enqueue(op *opRecords) store.Ticket {
	if len(op.recs) == 0 {
		return store.Ticket{}
	}
	s.durMu.Lock()
	defer s.durMu.Unlock()
	for i := range op.recs {
		if e := op.recs[i].Entry(); e != nil {
			if op.sh != nil && e.DeviceID == op.sh.deviceID {
				e.DeviceSeq = op.sh.nextAuditSeq()
			}
			*e = s.Audit.AppendEntry(*e)
		}
	}
	if s.dur == nil {
		return store.Ticket{}
	}
	return s.dur.Append(op.recs...)
}

// end is a device operation's deferred epilogue: it commits op's records
// (a commit failure replaces *err) and then leaves op's shard, so a drain
// waits for the commit.
func (s *Service) end(op *opRecords, err *error) {
	*err = commit(s.enqueue(op), *err)
	if op.sh != nil {
		op.sh.exit()
	}
}

// endWith is end for an operation with a result, which a commit failure
// zeroes: the operation acknowledges nothing.
func endWith[T any](s *Service, op *opRecords, out *T, err *error) {
	if s.end(op, err); *err != nil {
		var zero T
		*out = zero
	}
}

// commit waits, outside the Service's locks, for the records enqueue
// queued and returns the operation's outcome: opErr, or ErrNotDurable when
// the records could not be made durable, since an operation whose records
// are not durable must acknowledge nothing.
func commit(tk store.Ticket, opErr error) error {
	if err := tk.Wait(context.Background()); err != nil {
		return errf(ErrNotDurable, "operation not durable: %v", err)
	}
	return opErr
}

// writePolicy is the node's one policy write: edit changes a copy of the
// enforced document and the result is installed. The document joins op's
// records, and op is enqueued before polMu is released, so durable policy
// documents are in install order; the wait happens outside polMu.
func (s *Service) writePolicy(op *opRecords, edit func(*policy.Snapshot)) (policy.Stamp, error) {
	s.polMu.Lock()
	doc, stamp, err := s.Policy.Update(edit)
	if err != nil {
		err = badRequest(err)
	} else if raw, merr := json.Marshal(doc); merr != nil {
		err = errf(ErrNotDurable, "encoding policy v%d: %v", stamp.Version, merr)
	} else {
		op.recs = append(op.recs, store.Policy(store.PolicyRecord{Version: stamp.Version, Snapshot: raw}))
	}
	tk := s.enqueue(op)
	s.polMu.Unlock()
	if err = commit(tk, err); err != nil {
		return policy.Stamp{}, err
	}
	return stamp, nil
}

// AuditAdmin records a control-plane audit entry (no device, no cor),
// stamped with the enforced policy, and returns once it is durable: the
// admin plane's audit trail takes the same commit as every operation.
func (s *Service) AuditAdmin(outcome audit.Outcome, detail string) error {
	var op opRecords
	op.note(s.Policy.Stamp(), "", "", "", "", outcome, detail)
	return commit(s.enqueue(&op), nil)
}
