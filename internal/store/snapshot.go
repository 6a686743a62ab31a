package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"tinman/internal/audit"
)

func snapName(covered uint64) string { return fmt.Sprintf("snap-%016x.db", covered) }
func segName(first uint64) string    { return fmt.Sprintf("wal-%016x.log", first) }

// parseLSNName extracts the hex LSN from "prefix-%016x.suffix" names;
// ok is false for anything else (including .tmp leftovers).
func parseLSNName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != 16 {
		return 0, false
	}
	var v uint64
	if _, err := fmt.Sscanf(hex, "%016x", &v); err != nil {
		return 0, false
	}
	return v, true
}

// Snapshot writes the current durable state to a new snapshot file and
// compacts the log: the active segment is rotated, every WAL segment whose
// records are all covered is deleted, and older snapshots are removed.
//
// The ordering makes every crash window safe: the snapshot becomes durable
// (tmp write → file sync → rename → dir sync) before any log state is
// touched, so a crash between snapshot write and WAL truncation recovers
// from the new snapshot and simply skips the already-covered WAL records;
// a crash while deletes are pending resurrects some covered segments,
// which the next compaction removes again.
func (s *Store) Snapshot() error {
	if s.opts.ReadOnly {
		return ErrReadOnly
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() error {
	s.stateMu.Lock()
	covered := s.durableLSN
	already := s.snapLSN
	st := State{
		Audit:  append([]audit.Entry(nil), s.state.Audit...),
		Vault:  append([]VaultRecord(nil), s.state.Vault...),
		Policy: s.state.Policy,
	}
	s.stateMu.Unlock()
	if covered == already {
		return nil // nothing new to cover
	}

	buf := appendFrame(nil, recSnapHdr, covered, nil)
	for _, e := range st.Audit {
		buf = appendAuditFrame(buf, recAudit, 0, e)
	}
	for _, r := range st.Vault {
		sealed, err := s.sealVault(r)
		if err != nil {
			return err
		}
		buf = appendFrame(buf, recVault, 0, sealed)
	}
	if st.Policy.Version != 0 {
		p, err := encodePolicy(st.Policy)
		if err != nil {
			return err
		}
		buf = appendFrame(buf, recPolicy, 0, p)
	}
	buf = appendFrame(buf, recSnapEnd, covered, nil)

	final := filepath.Join(s.dir, snapName(covered))
	tmp := final + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
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
	if err := s.fs.Rename(tmp, final); err != nil {
		return err
	}
	// The snapshot is durable from here on.
	if err := s.fs.SyncDir(s.dir); err != nil {
		return err
	}
	s.stateMu.Lock()
	s.snapLSN = covered
	s.stateMu.Unlock()
	s.sinceSnap = 0
	s.statMu.Lock()
	s.stats.Snapshots++
	s.statMu.Unlock()

	// Compact: rotate the active segment so everything covered lives in
	// closed segments, then drop covered segments and superseded snapshots.
	if err := s.seg.Sync(); err != nil {
		return err
	}
	if err := s.seg.Close(); err != nil {
		return err
	}
	if err := s.openSegment(covered + 1); err != nil {
		return err
	}
	names, err := s.fs.ReadDirNames(s.dir)
	if err != nil {
		return err
	}
	segs := segStarts(names)
	removed := false
	for i, first := range segs {
		// A segment's records end where the next segment starts; the last
		// listed segment is the new active one (first = covered+1).
		if i+1 < len(segs) && segs[i+1] <= covered+1 {
			if err := s.fs.Remove(filepath.Join(s.dir, segName(first))); err != nil {
				return err
			}
			removed = true
		}
	}
	for _, name := range names {
		if lsn, ok := parseLSNName(name, "snap-", ".db"); ok && lsn < covered {
			if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil {
				return err
			}
			removed = true
		}
	}
	if removed {
		if err := s.fs.SyncDir(s.dir); err != nil {
			return err
		}
	}
	return nil
}

// segStarts extracts the sorted first-LSNs of the WAL segments among names
// (ReadDirNames returns sorted names, and the fixed-width hex sorts
// numerically).
func segStarts(names []string) []uint64 {
	var out []uint64
	for _, name := range names {
		if first, ok := parseLSNName(name, "wal-", ".log"); ok {
			out = append(out, first)
		}
	}
	return out
}
