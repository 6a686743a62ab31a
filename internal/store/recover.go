package store

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tinman/internal/cor"
	"tinman/internal/fault"
)

// saltFile holds the sealing salt (not secret; required to re-derive the
// vault key from the passphrase).
const saltFile = "seal.salt"

// Open recovers a store from dir and, unless ReadOnly, makes it writable:
//
//  1. load the newest snapshot that parses end-to-end (a snapshot is valid
//     iff its recSnapEnd frame is intact — a crash mid-snapshot-write
//     leaves either a .tmp or a missing end frame, both rejected);
//  2. replay every WAL segment in LSN order, one whole Append at a time,
//     skipping records the snapshot already covers and enforcing gap-free
//     LSN continuity above it;
//  3. stop at the first torn frame of the final segment (a crash
//     mid-group-commit), drop the Append it tore, and repair by truncating
//     the tail at that Append's first frame — an idempotent step, so a
//     second crash during recovery just repeats it;
//  4. delete stray .tmp files and start the group committer.
//
// A torn frame or an unfinished Append anywhere but the final segment, an
// LSN gap, or a sealed vault record that fails authentication (wrong
// passphrase) is unrepairable and fails with ErrCorrupt /
// cor.ErrVaultCorrupt.
func Open(opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = fault.OS
	}
	if !opts.ReadOnly && opts.Passphrase == "" && opts.Sealer == nil {
		return nil, fmt.Errorf("store: writable store requires a passphrase (cor records are sealed at rest)")
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: Options.Dir is required")
	}
	if !opts.ReadOnly {
		if err := fsys.MkdirAll(opts.Dir, 0o700); err != nil {
			return nil, err
		}
	}
	s := &Store{
		fs:       fsys,
		dir:      opts.Dir,
		opts:     opts,
		notify:   make(chan struct{}, 1),
		epoch:    make(chan struct{}),
		stopc:    make(chan struct{}),
		donec:    make(chan struct{}),
		vaultIdx: make(map[string]int),
	}
	if err := s.openSealer(); err != nil {
		return nil, err
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	if !opts.ReadOnly {
		go s.committer()
	} else {
		close(s.donec)
	}
	return s, nil
}

// openSealer loads (or, on a writable store, mints) the sealing salt and
// builds the Sealer. A read-only open without a passphrase leaves sealer
// nil: vault records stay sealed and are only counted.
func (s *Store) openSealer() error {
	if s.opts.Sealer != nil {
		s.sealer = s.opts.Sealer
		return nil
	}
	path := filepath.Join(s.dir, saltFile)
	salt, err := s.fs.ReadFile(path)
	if err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return err
	}
	if len(salt) != cor.SaltLen {
		// Missing, or torn by a crash before the salt's fsync completed —
		// in which case no vault record can have been sealed under it yet
		// (records are only appended after Open returns).
		if s.opts.ReadOnly {
			if s.opts.Passphrase != "" && len(salt) > 0 {
				return fmt.Errorf("store: salt file torn (%d bytes): %w", len(salt), ErrCorrupt)
			}
			return nil
		}
		fresh, err := cor.NewSealerSalt()
		if err != nil {
			return err
		}
		f, err := s.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
		if err != nil {
			return err
		}
		if _, err := f.Write(fresh); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := s.fs.SyncDir(s.dir); err != nil {
			return err
		}
		salt = fresh
	}
	if s.opts.Passphrase == "" {
		return nil // read-only, sealed vault records skipped
	}
	sealer, err := cor.NewSealer(s.opts.Passphrase, salt)
	if err != nil {
		return err
	}
	s.sealer = sealer
	return nil
}

// recover loads the snapshot + WAL into s.state and prepares the active
// segment.
func (s *Store) recover() error {
	names, err := s.fs.ReadDirNames(s.dir)
	if err != nil {
		if s.opts.ReadOnly && errors.Is(err, iofs.ErrNotExist) {
			return fmt.Errorf("store: no store at %s: %w", s.dir, err)
		}
		return err
	}

	// 1. Newest valid snapshot wins; invalid ones (torn by a crash) are
	// removed on writable opens.
	var snapCovered []uint64
	for _, name := range names {
		if lsn, ok := parseLSNName(name, "snap-", ".db"); ok {
			snapCovered = append(snapCovered, lsn)
		}
	}
	sort.Slice(snapCovered, func(i, j int) bool { return snapCovered[i] > snapCovered[j] })
	var invalidSnaps []string
	for _, covered := range snapCovered {
		name := snapName(covered)
		ok, err := s.loadSnapshot(filepath.Join(s.dir, name), covered)
		if err != nil {
			return err // hard failure (wrong passphrase, unreadable fs)
		}
		if ok {
			s.snapLSN = covered
			break
		}
		invalidSnaps = append(invalidSnaps, name)
	}

	// 2. Replay segments above the snapshot horizon.
	segs := segStarts(names)
	lastLSN := s.snapLSN
	tornSeg, tornOff, lastSize := "", -1, 0
	for i, first := range segs {
		name := filepath.Join(s.dir, segName(first))
		data, err := s.fs.ReadFile(name)
		if err != nil {
			return err
		}
		last := i == len(segs)-1
		// group holds the frames of the Append being read; end is just past
		// the last whole Append, where a torn one is cut off.
		var group []frame
		off, end := 0, 0
		for off < len(data) {
			f, next, ferr := readFrame(data, off)
			if ferr != nil || f.typ == recSnapHdr || f.typ == recSnapEnd {
				break
			}
			group, off = append(group, f), next
			if !f.more {
				if lastLSN, err = s.replayAppend(group, lastLSN, first); err != nil {
					return err
				}
				group, end = group[:0], off
			}
		}
		if end < len(data) && !last {
			return fmt.Errorf("store: bad frame at %s+%d in a non-final segment: %w", segName(first), end, ErrCorrupt)
		}
		if last {
			lastSize = end
			if end < len(data) {
				tornSeg, tornOff = name, end
			}
		}
	}
	s.nextLSN = lastLSN
	s.durableLSN = lastLSN
	s.waterLSN = lastLSN
	if s.opts.ReadOnly {
		return nil
	}

	// 3. Repair: drop stray tmp files and invalid snapshots, truncate the
	// torn tail. All idempotent — a crash mid-recovery re-runs them.
	cleaned := false
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil {
				return err
			}
			cleaned = true
		}
	}
	for _, name := range invalidSnaps {
		if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil {
			return err
		}
		cleaned = true
	}
	if cleaned {
		if err := s.fs.SyncDir(s.dir); err != nil {
			return err
		}
	}
	if tornOff >= 0 {
		f, err := s.fs.OpenFile(tornSeg, os.O_WRONLY, 0o600)
		if err != nil {
			return err
		}
		if err := f.Truncate(int64(tornOff)); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	// 4. Open the active segment (the last one), or create the first.
	if len(segs) == 0 {
		return s.openSegment(lastLSN + 1)
	}
	name := filepath.Join(s.dir, segName(segs[len(segs)-1]))
	f, err := s.fs.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return err
	}
	s.seg, s.segName, s.segSize = f, name, int64(lastSize)
	return nil
}

// replayAppend applies a whole Append's frames above the snapshot horizon,
// their LSNs continuing lastLSN without a gap, and returns the last LSN.
func (s *Store) replayAppend(group []frame, lastLSN, seg uint64) (uint64, error) {
	for _, f := range group {
		if f.lsn <= s.snapLSN {
			continue
		}
		if f.lsn != lastLSN+1 {
			return 0, fmt.Errorf("store: LSN gap in %s: have %d, want %d: %w", segName(seg), f.lsn, lastLSN+1, ErrCorrupt)
		}
		r, err := s.decodeRecord(f.typ, f.payload)
		if err != nil {
			return 0, err
		}
		s.applyLocked(&r) // single-threaded during recovery
		lastLSN = f.lsn
	}
	return lastLSN, nil
}

// decodeRecord turns a frame payload into its Record; the zero Record
// (which applyLocked ignores) stands for a sealed vault record read
// without a passphrase.
func (s *Store) decodeRecord(typ byte, payload []byte) (Record, error) {
	switch typ {
	case recAudit:
		e, err := decodeAudit(payload)
		if err != nil {
			return Record{}, fmt.Errorf("%v: %w", err, ErrCorrupt)
		}
		return Audit(e), nil
	case recVault:
		if s.sealer == nil {
			s.state.SealedVault++
			return Record{}, nil
		}
		plain, err := s.sealer.Open(payload, vaultAD)
		if err != nil {
			return Record{}, err // wraps cor.ErrVaultCorrupt
		}
		r, err := decodeVault(plain)
		if err != nil {
			return Record{}, fmt.Errorf("store: vault record unparsable: %v: %w", err, ErrCorrupt)
		}
		return Vault(r), nil
	case recPolicy:
		r, err := decodePolicy(payload)
		if err != nil {
			return Record{}, fmt.Errorf("store: policy record unparsable: %v: %w", err, ErrCorrupt)
		}
		return Policy(r), nil
	}
	return Record{}, fmt.Errorf("store: unexpected record type %d: %w", typ, ErrCorrupt)
}

// loadSnapshot parses one snapshot file into s.state. ok is false when the
// file is structurally invalid (torn write — the caller falls back to an
// older snapshot); err is reserved for hard failures like a sealed record
// that fails authentication.
func (s *Store) loadSnapshot(path string, covered uint64) (ok bool, err error) {
	data, rerr := s.fs.ReadFile(path)
	if rerr != nil {
		if errors.Is(rerr, iofs.ErrNotExist) {
			return false, nil
		}
		return false, rerr
	}
	// Structural validation pass first: only a snapshot terminated by its
	// recSnapEnd frame may mutate state.
	var recs []frame
	off, seenEnd := 0, false
	for off < len(data) {
		f, next, ferr := readFrame(data, off)
		if ferr != nil || f.more {
			return false, nil
		}
		switch {
		case off == 0:
			if f.typ != recSnapHdr || f.lsn != covered {
				return false, nil
			}
		case f.typ == recSnapEnd:
			if f.lsn != covered || next != len(data) {
				return false, nil
			}
			seenEnd = true
		case f.typ == recSnapHdr:
			return false, nil
		default:
			recs = append(recs, f)
		}
		off = next
	}
	if !seenEnd {
		return false, nil
	}
	for _, f := range recs {
		r, derr := s.decodeRecord(f.typ, f.payload)
		if derr != nil {
			return false, derr
		}
		s.applyLocked(&r)
	}
	return true, nil
}
