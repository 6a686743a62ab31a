package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tinman/internal/audit"
	"tinman/internal/cor"
	"tinman/internal/fault"
)

// Sentinel errors.
var (
	// ErrClosed marks appends after Close.
	ErrClosed = errors.New("store: closed")
	// ErrReadOnly marks appends on a read-only store.
	ErrReadOnly = errors.New("store: read-only")
	// ErrCorrupt marks non-tail corruption — damage recovery cannot repair
	// by truncation (a bad frame in the middle of a synced segment, an LSN
	// gap above the snapshot horizon).
	ErrCorrupt = errors.New("store: log corrupt")
)

// Options configures Open.
type Options struct {
	// Dir is the store directory (created if missing).
	Dir string
	// Passphrase seals cor vault records at rest (the internal/cor KDF +
	// AES-256-GCM path). Required for writable stores; optional for
	// read-only opens, where an empty passphrase leaves vault records
	// sealed (State.SealedVault counts them).
	Passphrase string
	// Sealer, when non-nil, is used instead of deriving one from
	// Passphrase — for callers that already paid the KDF (and for tests,
	// where re-deriving on every Open would dominate the run time). The
	// same sealer must be supplied on every Open of the directory.
	Sealer *cor.Sealer
	// FS is the filesystem; nil means the real OS. Tests inject
	// fault.CrashFS here.
	FS fault.FS
	// ReadOnly opens without repairing torn tails, creating files, or
	// starting the committer — the tinman-audit offline-query mode.
	ReadOnly bool
	// CommitInterval is the group-commit accumulation window: after the
	// first record of a batch arrives the committer waits this long for
	// more before the single fsync. 0 commits as soon as the committer is
	// free (still batching whatever queued meanwhile).
	CommitInterval time.Duration
	// SegmentBytes rotates the active WAL segment past this size;
	// 0 means 4 MiB.
	SegmentBytes int64
	// SnapshotEvery auto-snapshots (and compacts the log) after this many
	// records since the last snapshot; 0 disables auto-snapshots.
	SnapshotEvery int
}

// State is the recovered contents of a store: everything a trusted node
// needs to resume — audit entries in Seq order, vault records in first-
// registration order (later upserts folded in), and the latest policy
// document (Version 0 when none was logged).
type State struct {
	Audit  []audit.Entry
	Vault  []VaultRecord
	Policy PolicyRecord
	// SealedVault counts vault records left undecrypted because the store
	// was opened read-only without a passphrase.
	SealedVault int
}

// Stats is a snapshot of the engine's activity counters.
type Stats struct {
	Records   uint64 // records committed
	Batches   uint64 // group commits (one buffered write each)
	Syncs     uint64 // file fsyncs issued by the engine
	Snapshots uint64 // snapshots written
	LastLSN   uint64 // highest LSN assigned
	SnapLSN   uint64 // LSN covered by the latest snapshot
}

// Record is one durable record — an audit entry, a vault upsert or a
// policy document — built with Audit, Vault or Policy. A value slot per
// kind, not an `any`, keeps the append hot path from boxing each record.
type Record struct {
	typ byte
	aud audit.Entry
	vlt VaultRecord
	pol PolicyRecord
}

// Audit makes an audit entry a Record.
func Audit(e audit.Entry) Record { return Record{typ: recAudit, aud: e} }

// Vault makes a vault upsert a Record; Append seals it before framing.
func Vault(r VaultRecord) Record { return Record{typ: recVault, vlt: r} }

// Policy makes a policy document a Record; it replaces the earlier one.
func Policy(r PolicyRecord) Record { return Record{typ: recPolicy, pol: r} }

// Entry returns the audit entry an audit Record carries, nil for another
// kind, for its owner to complete in place before the Append.
func (r *Record) Entry() *audit.Entry {
	if r.typ != recAudit {
		return nil
	}
	return &r.aud
}

// pending is one queued record with its LSN, its encoded payload (audit
// entries are encoded straight into the batch buffer), and whether the
// next queued record belongs to the same Append.
type pending struct {
	Record
	payload []byte
	lsn     uint64
	more    bool
}

// Ticket is a handle on one Append's durability: Wait returns nil once the
// group commit holding its records has fsynced, or the commit error.
type Ticket struct {
	s   *Store
	lsn uint64
	err error // append-time failure (encode, seal, closed store)
}

// Wait blocks until the records are durable or ctx is done.
func (t Ticket) Wait(ctx context.Context) error {
	if t.s == nil {
		return t.err
	}
	return t.s.waitLSN(ctx, t.lsn)
}

// waitLSN blocks until the commit watermark covers lsn or the store fails.
// The watermark is checked before the sticky error so a record that made it
// to disk reports durable even if a later batch failed.
func (s *Store) waitLSN(ctx context.Context, lsn uint64) error {
	done := ctx.Done()
	for {
		s.mu.Lock()
		if s.waterLSN >= lsn {
			s.mu.Unlock()
			return nil
		}
		if err := s.failed; err != nil {
			s.mu.Unlock()
			return err
		}
		ch := s.epoch
		s.mu.Unlock()
		if done == nil {
			// No cancellation to race against (context.Background and
			// friends): a plain receive skips the select machinery on the
			// commit hot path.
			<-ch
			continue
		}
		select {
		case <-ch:
		case <-done:
			return ctx.Err()
		}
	}
}

// Store is the crash-safe storage engine. An Append assigns its records
// consecutive LSNs and queues them in one step under one mutex (callers
// that must keep an external order — the node's audit Seq — take their own
// lock around mint+Append, making Seq order equal LSN order) and returns a
// Ticket; a single committer goroutine drains the queue in batches of
// whole Appends, writing each batch with one buffered write and one fsync,
// then completes the tickets. A failed commit is sticky: the store refuses
// further work, because the disk state past the failure point is unknown.
type Store struct {
	fs     fault.FS
	dir    string
	opts   Options
	sealer *cor.Sealer

	mu      sync.Mutex
	nextLSN uint64
	queue   []pending
	failed  error
	closed  bool
	// waterLSN is the highest LSN whose group commit has fsynced; epoch is
	// closed and replaced on every commit (and on failure), so a Ticket
	// waits on the broadcast instead of owning a channel — appends allocate
	// nothing for completion.
	waterLSN uint64
	epoch    chan struct{}
	// spare is the previous batch's slice, handed back by the committer so
	// the queue doesn't re-grow from nil on every batch.
	spare []pending

	notify chan struct{}
	stopc  chan struct{}
	donec  chan struct{}

	// committer-owned; commitMu also serializes external Snapshot calls
	// against commits and compaction.
	commitMu  sync.Mutex
	seg       fault.File
	segName   string
	segSize   int64
	sinceSnap int
	buf       []byte // reused frame build buffer

	stateMu    sync.Mutex
	state      State
	vaultIdx   map[string]int
	durableLSN uint64
	snapLSN    uint64

	statMu sync.Mutex
	stats  Stats
}

// ReadOnly reports whether the store was opened read-only.
func (s *Store) ReadOnly() bool { return s.opts.ReadOnly }

// State returns a copy of the recovered + committed state.
func (s *Store) State() State {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	out := State{
		Audit:       append([]audit.Entry(nil), s.state.Audit...),
		Vault:       append([]VaultRecord(nil), s.state.Vault...),
		Policy:      s.state.Policy,
		SealedVault: s.state.SealedVault,
	}
	return out
}

// Stats returns the activity counters.
func (s *Store) Stats() Stats {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	st := s.stats
	s.mu.Lock()
	st.LastLSN = s.nextLSN
	s.mu.Unlock()
	s.stateMu.Lock()
	st.SnapLSN = s.snapLSN
	s.stateMu.Unlock()
	return st
}

// Append queues one operation's records for durable commit and returns
// one Ticket for all of them. The records take consecutive LSNs in one
// queue step, land in one group commit, and are framed as one unit:
// recovery applies them all or, when a crash tears them, none. Vault
// records are sealed and policy documents encoded here, outside the queue
// lock; audit entries are encoded straight into the committer's batch
// buffer. An empty Append waits for every record queued before it.
func (s *Store) Append(recs ...Record) Ticket {
	if s.opts.ReadOnly {
		return Ticket{err: ErrReadOnly}
	}
	var small [4]pending // an operation's records, without a heap allocation
	ps := small[:0]
	for i, r := range recs {
		p := pending{Record: r, more: i < len(recs)-1}
		var err error
		switch r.typ {
		case recAudit:
		case recVault:
			p.payload, err = s.sealVault(r.vlt)
		case recPolicy:
			p.payload, err = encodePolicy(r.pol)
		default:
			err = errors.New("store: Append of a zero Record")
		}
		if err != nil {
			return Ticket{err: err}
		}
		ps = append(ps, p)
	}
	s.mu.Lock()
	switch {
	case s.closed:
		s.mu.Unlock()
		return Ticket{err: ErrClosed}
	case s.failed != nil:
		err := s.failed
		s.mu.Unlock()
		return Ticket{err: err}
	}
	for i := range ps {
		s.nextLSN++
		ps[i].lsn = s.nextLSN
	}
	if s.queue == nil && s.spare != nil {
		s.queue, s.spare = s.spare[:0], nil
	}
	s.queue = append(s.queue, ps...)
	t := Ticket{s: s, lsn: s.nextLSN}
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return t
}

// AppendAudit appends one audit entry: Append(Audit(e)).
func (s *Store) AppendAudit(e audit.Entry) Ticket { return s.Append(Audit(e)) }

// sealVault encodes and seals a vault record: no cor plaintext reaches the
// disk.
func (s *Store) sealVault(r VaultRecord) ([]byte, error) {
	plain, err := encodeVault(r)
	if err != nil {
		return nil, err
	}
	return s.sealer.Seal(plain, vaultAD)
}

// committer is the group-commit loop: drain everything queued, commit it
// with one write + one fsync, auto-snapshot if due, then release the
// batch's waiters (in that order, so a test driving appends one at a time
// observes a deterministic filesystem operation sequence).
func (s *Store) committer() {
	defer close(s.donec)
	for {
		select {
		case <-s.notify:
		case <-s.stopc:
			s.drainOnce()
			return
		}
		if s.opts.CommitInterval > 0 {
			time.Sleep(s.opts.CommitInterval)
		}
		s.drainOnce()
	}
}

// drainOnce commits one batch if anything is queued.
func (s *Store) drainOnce() {
	s.mu.Lock()
	batch := s.queue
	s.queue = nil
	s.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	err := s.commit(batch)
	if err == nil {
		// Snapshot before acknowledging: keeps the filesystem op sequence a
		// pure function of the record sequence.
		err = s.maybeAutoSnapshot()
	}
	if err != nil {
		s.fail(err)
		return
	}
	s.mu.Lock()
	s.waterLSN = batch[len(batch)-1].lsn
	close(s.epoch)
	s.epoch = make(chan struct{})
	s.spare = batch[:0]
	s.mu.Unlock()
}

// maybeAutoSnapshot snapshots when enough records accumulated since the
// last one.
func (s *Store) maybeAutoSnapshot() error {
	if s.opts.SnapshotEvery <= 0 {
		return nil
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if s.sinceSnap < s.opts.SnapshotEvery {
		return nil
	}
	return s.snapshotLocked()
}

// commit writes one batch: rotate if the active segment is full, then one
// buffered write and one fsync for the whole batch.
func (s *Store) commit(batch []pending) error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	buf := s.buf[:0]
	for i := range batch {
		p := &batch[i]
		typ := p.typ
		if p.more {
			typ |= frameMore
		}
		if p.typ == recAudit {
			buf = appendAuditFrame(buf, typ, p.lsn, p.aud)
		} else {
			buf = appendFrame(buf, typ, p.lsn, p.payload)
		}
	}
	s.buf = buf
	if s.segSize > 0 && s.segSize+int64(len(buf)) > s.segmentBytes() {
		if err := s.rotate(batch[0].lsn); err != nil {
			return err
		}
	}
	if _, err := s.seg.Write(buf); err != nil {
		return err
	}
	if err := s.syncSeg(); err != nil {
		return err
	}
	s.segSize += int64(len(buf))

	s.stateMu.Lock()
	for i := range batch {
		s.applyLocked(&batch[i].Record)
	}
	s.durableLSN = batch[len(batch)-1].lsn
	s.stateMu.Unlock()

	s.sinceSnap += len(batch)
	s.statMu.Lock()
	s.stats.Records += uint64(len(batch))
	s.stats.Batches++
	s.statMu.Unlock()
	return nil
}

func (s *Store) segmentBytes() int64 {
	if s.opts.SegmentBytes > 0 {
		return s.opts.SegmentBytes
	}
	return 4 << 20
}

func (s *Store) syncSeg() error {
	if err := s.seg.Sync(); err != nil {
		return err
	}
	s.statMu.Lock()
	s.stats.Syncs++
	s.statMu.Unlock()
	return nil
}

// rotate closes the active segment (already fully synced by the previous
// commit) and opens a fresh one named by the first LSN it will hold. The
// new segment is fsynced and the directory synced before any record lands
// in it: a record acknowledged from the new segment must not vanish with
// an undurable directory entry.
func (s *Store) rotate(firstLSN uint64) error {
	if err := s.seg.Sync(); err != nil {
		return err
	}
	if err := s.seg.Close(); err != nil {
		return err
	}
	return s.openSegment(firstLSN)
}

// openSegment creates and durably publishes a new active segment;
// commitMu held.
func (s *Store) openSegment(firstLSN uint64) error {
	name := filepath.Join(s.dir, fmt.Sprintf("wal-%016x.log", firstLSN))
	f, err := s.fs.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	s.seg, s.segName, s.segSize = f, name, 0
	return nil
}

// applyLocked folds one committed record into the in-memory state;
// stateMu held (or recovery, which is single-threaded).
func (s *Store) applyLocked(r *Record) {
	switch r.typ {
	case recAudit:
		s.state.Audit = append(s.state.Audit, r.aud)
	case recVault:
		if i, ok := s.vaultIdx[r.vlt.ID]; ok {
			s.state.Vault[i] = r.vlt
		} else {
			s.vaultIdx[r.vlt.ID] = len(s.state.Vault)
			s.state.Vault = append(s.state.Vault, r.vlt)
		}
	case recPolicy:
		s.state.Policy = r.pol
	}
}

// fail flips the store into its sticky failed state, drops the queue, and
// wakes every waiter (they observe the error through the watermark check).
func (s *Store) fail(err error) {
	s.mu.Lock()
	if s.failed == nil {
		s.failed = err
	}
	s.queue = nil
	close(s.epoch)
	s.epoch = make(chan struct{})
	s.mu.Unlock()
}

// Close drains outstanding appends, stops the committer, and closes the
// active segment. Safe after a failure (the drain errors out the queue).
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.opts.ReadOnly {
		return nil
	}
	close(s.stopc)
	<-s.donec
	s.mu.Lock()
	failed := s.failed
	s.mu.Unlock()
	if s.seg != nil {
		if failed == nil {
			if err := s.seg.Sync(); err != nil {
				return err
			}
		}
		return s.seg.Close()
	}
	return nil
}
