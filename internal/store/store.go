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

// pending is one queued record: its frame inputs, the typed value for the
// in-memory state, and the caller's completion channel. The value slot per
// record type (rather than one `any`) keeps the append hot path from boxing
// every record — interface conversion is an allocation the group-commit
// throughput benchmark can see.
type pending struct {
	typ     byte
	payload []byte
	aud     audit.Entry
	vlt     VaultRecord
	pol     PolicyRecord
	lsn     uint64
}

// Ticket is a handle on one append's durability: Wait returns nil once the
// record's group commit has fsynced, or the commit error.
type Ticket struct {
	s   *Store
	lsn uint64
	err error // append-time failure (encode, seal, closed store)
}

// Wait blocks until the record is durable or ctx is done.
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

// Store is the crash-safe storage engine. Appends assign LSNs under one
// mutex (callers that must keep an external order — the node's audit Seq —
// take their own lock around mint+append, making Seq order equal LSN
// order), queue the record, and return a Ticket; a single committer
// goroutine drains the queue in batches, writing each batch with one
// buffered write and one fsync, then completes the tickets. A failed
// commit is sticky: the store refuses further work, because the disk state
// past the failure point is unknown.
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

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

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

// AppendAudit queues an audit entry for durable commit. The entry travels
// to the committer as its typed value and is encoded straight into the
// batch buffer there — no payload allocation on the hot path.
func (s *Store) AppendAudit(e audit.Entry) Ticket {
	return s.enqueue(pending{typ: recAudit, aud: e})
}

// AppendVault queues a vault upsert; the record is sealed (encrypted at
// rest) before it is framed.
func (s *Store) AppendVault(r VaultRecord) Ticket {
	plain, err := encodeVault(r)
	if err != nil {
		return failedTicket(err)
	}
	sealed, err := s.sealer.Seal(plain, vaultAD)
	if err != nil {
		return failedTicket(err)
	}
	return s.enqueue(pending{typ: recVault, payload: sealed, vlt: r})
}

// AppendPolicy queues a policy document; once committed it replaces the
// state's earlier one.
func (s *Store) AppendPolicy(r PolicyRecord) Ticket {
	p, err := encodePolicy(r)
	if err != nil {
		return failedTicket(err)
	}
	return s.enqueue(pending{typ: recPolicy, payload: p, pol: r})
}

func failedTicket(err error) Ticket {
	return Ticket{err: err}
}

// enqueue assigns the LSN and queues the record.
func (s *Store) enqueue(p pending) Ticket {
	s.mu.Lock()
	switch {
	case s.opts.ReadOnly:
		s.mu.Unlock()
		return failedTicket(ErrReadOnly)
	case s.closed:
		s.mu.Unlock()
		return failedTicket(ErrClosed)
	case s.failed != nil:
		err := s.failed
		s.mu.Unlock()
		return failedTicket(err)
	}
	s.nextLSN++
	p.lsn = s.nextLSN
	if s.queue == nil && s.spare != nil {
		s.queue, s.spare = s.spare[:0], nil
	}
	s.queue = append(s.queue, p)
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return Ticket{s: s, lsn: p.lsn}
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
		if p.typ == recAudit {
			buf = appendAuditFrame(buf, p.lsn, p.aud)
		} else {
			buf = appendFrame(buf, p.typ, p.lsn, p.payload)
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
	for _, p := range batch {
		switch p.typ {
		case recAudit:
			s.state.Audit = append(s.state.Audit, p.aud)
		case recVault:
			s.applyVaultLocked(p.vlt)
		case recPolicy:
			s.state.Policy = p.pol
		}
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
// stateMu held.
func (s *Store) applyLocked(val any) {
	switch v := val.(type) {
	case audit.Entry:
		s.state.Audit = append(s.state.Audit, v)
	case VaultRecord:
		s.applyVaultLocked(v)
	case PolicyRecord:
		s.state.Policy = v
	}
}

// applyVaultLocked upserts one vault record; stateMu held.
func (s *Store) applyVaultLocked(v VaultRecord) {
	if i, ok := s.vaultIdx[v.ID]; ok {
		s.state.Vault[i] = v
	} else {
		s.vaultIdx[v.ID] = len(s.state.Vault)
		s.state.Vault = append(s.state.Vault, v)
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
